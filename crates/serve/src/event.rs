//! The event-driven connection layer: a poll(2) readiness loop,
//! per-connection state machines, and a bounded admission count for the
//! request jobs it submits to the process-wide compute pool.
//!
//! The thread budget is fixed up front — **one** loop thread owning
//! every socket, and the `distvliw_core::par` pool computing requests
//! and their cells — so a connection flood cannot grow the process, and
//! admission is explicit:
//!
//! * connections beyond `max_conns` are answered `503` with
//!   `retry-after` at accept time and closed;
//! * at most `queue_depth` of this loop's request jobs wait for a pool
//!   thread (runner jobs are not counted); beyond that the loop answers
//!   `503 retry-after` immediately instead of queueing without bound
//!   (the connection stays open so the client can back off and retry).
//!
//! Each connection walks an explicit state machine:
//!
//! ```text
//!           readable              complete request
//!   Idle ───────────▶ Reading ───────────────────▶ Computing
//!    ▲                   │ parse error → 4xx/501        │ request job finishes
//!    │                   ▼                              ▼
//!    └────────────── Writing ◀──────────────────────────┘
//!      response flushed (or close)
//! ```
//!
//! While a connection is `Computing` the loop polls no events for it —
//! pipelined bytes wait in the kernel buffer — so one slow request
//! cannot make the loop busy-spin. Request jobs hand finished responses
//! back through a completion list and wake the loop via a loopback
//! socketpair (std has no pipes). Responses are rendered by
//! [`render_response`].
//!
//! Timeouts: idle keep-alive connections are reaped after 60 s, a
//! connection stalling mid-request (or mid-response) is closed after
//! 30 s, and shutdown drains — in-flight computations finish and their
//! responses are written before the loop exits. However the loop exits, `run`
//! returns only once every request job it submitted has finished.

use std::io::{self, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

use distvliw_core::par::Pool;
use distvliw_obs::{Counter, Gauge};

use crate::endpoints;
use crate::http::{parse_request, render_response, Parse, Request, Response};
use crate::json::Json;

/// Idle keep-alive connections are reaped after this long.
const IDLE_LIMIT: Duration = Duration::from_secs(60);
/// A connection stalled mid-request or mid-response is closed after
/// this long.
const REQUEST_WINDOW: Duration = Duration::from_secs(30);
/// Upper bound on one poll(2) sleep, so an externally-set shutdown
/// flag is noticed within one tick.
const MAX_TICK: Duration = Duration::from_millis(500);
/// Consecutive hard accept failures before the loop gives up instead
/// of retrying every `ACCEPT_BACKOFF` forever (a permanently broken
/// listener — e.g. closed out from under us — would otherwise spin the
/// accept loop for the life of the process).
const ACCEPT_FAILURE_LIMIT: u32 = 25;
/// Backoff after one transient accept failure (EMFILE under fd
/// exhaustion recovers; the backoff keeps the loop off 100% CPU).
const ACCEPT_BACKOFF: Duration = Duration::from_millis(20);
/// `retry-after` seconds advertised on backpressure 503s.
const RETRY_AFTER_SECS: u32 = 1;

/// Sizing knobs for the connection layer (`serve --max-conns
/// --queue-depth`).
#[derive(Debug, Clone, Copy)]
pub struct EventConfig {
    /// Maximum concurrently open connections; excess accepts are
    /// answered 503 and closed.
    pub max_conns: usize,
    /// Bound on parsed requests waiting for a pool thread; overflow is
    /// answered 503 immediately.
    pub queue_depth: usize,
}

impl Default for EventConfig {
    fn default() -> Self {
        EventConfig {
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

/// One finished response on its way back to the loop.
struct Done {
    token: usize,
    generation: u64,
    response: Response,
    /// Close-after-response decision, captured at parse time.
    close: bool,
}

/// What the loop shares with the request jobs it submits.
struct Shared {
    handler: Arc<Handler>,
    jobs: Mutex<Jobs>,
    /// Signalled when the last unfinished job finishes.
    idle: Condvar,
    wake_tx: TcpStream,
    /// `serve_queue_depth`, summed over every server in the process.
    queue_depth: Gauge,
    panics: Counter,
}

#[derive(Default)]
struct Jobs {
    /// Submitted, not yet started: what [`EventConfig::queue_depth`]
    /// bounds.
    waiting: usize,
    /// Submitted, not yet finished.
    unfinished: usize,
    /// Finished responses the loop has not picked up yet.
    done: Vec<Done>,
}

impl Shared {
    /// Counts one more waiting job, unless `limit` jobs already wait.
    fn admit(&self, limit: usize) -> bool {
        let mut jobs = lock(&self.jobs);
        if jobs.waiting >= limit {
            return false;
        }
        jobs.waiting += 1;
        jobs.unfinished += 1;
        true
    }

    /// Blocks until every submitted job has finished.
    fn wait_idle(&self) {
        let mut jobs = lock(&self.jobs);
        while jobs.unfinished > 0 {
            jobs = self.idle.wait(jobs).unwrap_or_else(PoisonError::into_inner);
        }
    }
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
    /// Request submitted to the pool; no events polled.
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

/// All loop-owned mutable state, factored so helpers can borrow it
/// without fighting the borrow checker over `self`-splitting.
struct Loop<'p> {
    slots: Vec<Slot>,
    free: Vec<usize>,
    open: usize,
    pool: &'p Pool,
    shared: Arc<Shared>,
    queue_limit: usize,
    accepted: Counter,
    rejected_queue_full: Counter,
    rejected_max_conns: Counter,
    shutdown: Arc<AtomicBool>,
}

impl Loop<'_> {
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
                    Some((resp, close)) => self.queue_response(token, &resp, close),
                    None => return After::Keep,
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
    /// request, submits it to the pool (`None`, as for an incomplete
    /// one) or returns the 503/4xx/501 that [`Loop::pump`] answers
    /// inline, with its close-after-write flag. `/shutdown` is handled
    /// here at the connection layer, so the engine stays a pure
    /// request → response function.
    fn dispatch_step(&mut self, token: usize) -> Option<(Response, bool)> {
        let generation = self.slots.get(token)?.generation;
        let conn = self.conn_mut(token)?;
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
                return None;
            }
            Ok(Parse::Complete(request, used)) => (request, used),
            Err(e) => {
                let resp = Response::json(
                    e.status,
                    Json::obj(vec![("error", Json::str(e.msg))]).render(),
                );
                return Some((resp, true));
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
            return Some((resp, true));
        }

        let close = request.wants_close();
        if !self.shared.admit(self.queue_limit) {
            // Backpressure: the admission count is the bound, and the
            // front door says "later".
            self.rejected_queue_full.inc();
            distvliw_obs::logger::event(
                "warn",
                "overload_rejected",
                &[
                    ("reason", "queue_full".into()),
                    ("path", request.path.as_str().into()),
                    ("retry_after_secs", u64::from(RETRY_AFTER_SECS).into()),
                ],
            );
            let resp = Response::overloaded("request queue full", RETRY_AFTER_SECS);
            return Some((resp, close));
        }
        if let Some(conn) = self.conn_mut(token) {
            conn.state = ConnState::Computing;
            conn.since = Instant::now();
        }
        self.shared.queue_depth.add(1);
        let shared = self.shared.clone();
        self.pool.spawn(move || {
            lock(&shared.jobs).waiting -= 1;
            shared.queue_depth.add(-1);
            // The engine's shared state survives an unwind: its locks
            // shrug off poisoning and a panicking cell leader hands its
            // flight to a follower.
            let response = panic::catch_unwind(AssertUnwindSafe(|| {
                (shared.handler)(&request, parse_start, parse_dur)
            }))
            .unwrap_or_else(|_| {
                shared.panics.inc();
                distvliw_obs::logger::event(
                    "error",
                    "request_panicked",
                    &[("path", request.path.as_str().into())],
                );
                Response::json(
                    500,
                    Json::obj(vec![("error", Json::str("internal error"))]).render(),
                )
            });
            let mut jobs = lock(&shared.jobs);
            jobs.done.push(Done {
                token,
                generation,
                response,
                close,
            });
            jobs.unfinished -= 1;
            if jobs.unfinished == 0 {
                shared.idle.notify_all();
            }
            drop(jobs);
            wake(&shared.wake_tx);
        });
        None
    }
}

/// Creates the loopback waker socketpair (std exposes no pipes): the
/// write end wakes the poll loop from request jobs, the read end
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

/// What a request job runs: the engine's [`endpoints::serve_request`]
/// in a server. Given the request and its framing read's start and
/// duration.
pub(crate) type Handler = dyn Fn(&Request, Instant, Duration) -> Response + Send + Sync;

/// Runs the event loop until shutdown. Owns the listener and every
/// connection; each parsed request becomes a job on `pool` that
/// answers it with `handler`. A panicking `handler` call is answered
/// `500` and counted in `serve_panics_total`; its pool thread lives on.
/// Returns only once every submitted job has finished, on the drain
/// path and on an error exit alike.
///
/// # Errors
///
/// Propagates listener setup failures, poll failures and escalated
/// accept failures ([`ACCEPT_FAILURE_LIMIT`] consecutive hard errors).
pub(crate) fn run(
    listener: &TcpListener,
    handler: &Arc<Handler>,
    shutdown: &Arc<AtomicBool>,
    config: &EventConfig,
    pool: &Pool,
) -> io::Result<()> {
    listener.set_nonblocking(true)?;
    let (wake_tx, wake_rx) = waker_pair()?;

    // Register every family up front, so /metrics lists the same
    // families (at zero) from the first scrape on, whatever code paths
    // (first overload, first sweep, first panic) have run since.
    distvliw_core::register_metrics();
    endpoints::register_metrics();
    let reg = distvliw_obs::global();
    let rejected = |reason| {
        reg.counter_with(
            "serve_rejected_total",
            "Requests rejected 503 at the front door, by reason",
            &[("reason", reason)],
        )
    };
    let reaped = reg.counter(
        "serve_connections_reaped_total",
        "Idle keep-alive connections reaped at the idle limit",
    );
    let accept_errors = reg.counter(
        "serve_accept_errors_total",
        "Accept failures answered with a 20ms backoff",
    );
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

    let mut state = Loop {
        slots: Vec::new(),
        free: Vec::new(),
        open: 0,
        pool,
        shared: Arc::new(Shared {
            handler: handler.clone(),
            jobs: Mutex::default(),
            idle: Condvar::new(),
            wake_tx,
            queue_depth: reg.gauge(
                "serve_queue_depth",
                "Parsed requests waiting for a pool thread",
            ),
            panics: reg.counter(
                "serve_panics_total",
                "Requests whose handler panicked, answered 500",
            ),
        }),
        queue_limit: config.queue_depth.max(1),
        accepted: reg.counter("serve_connections_total", "Connections accepted"),
        rejected_queue_full: rejected("queue_full"),
        rejected_max_conns: rejected("max_conns"),
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
        if let Err(e) = sys::poll_wait(&mut fds, timeout.as_millis() as i32) {
            break Err(e);
        }

        // 1. Waker: drain the pending wake bytes.
        if fds[0].revents & (sys::POLLIN | sys::POLLERR | sys::POLLHUP) != 0 {
            let mut sink = [0u8; 64];
            while matches!((&wake_rx).read(&mut sink), Ok(n) if n > 0) {}
        }

        // 2. Finished computations → start writing responses.
        let finished: Vec<Done> = std::mem::take(&mut lock(&state.shared.jobs).done);
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

    // Teardown: after an error exit, request jobs may still wait or
    // run (their responses are discarded); the caller's final state
    // flush must not race them.
    state.shared.wait_idle();
    for (_, gauge) in &state_gauges {
        gauge.set(0);
    }
    open_gauge.set(0);
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
            state.rejected_max_conns.inc();
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
    use std::io::BufReader;
    use std::net::SocketAddr;
    use std::sync::mpsc;

    use crate::client::{read_response, ClientResponse};

    #[test]
    fn default_config_is_bounded() {
        let c = EventConfig::default();
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

    /// A keep-alive test connection.
    type Conn = BufReader<TcpStream>;

    /// Sends `GET path` on `conn`.
    fn send(conn: &mut Conn, path: &str) {
        write!(conn.get_mut(), "GET {path} HTTP/1.1\r\n\r\n").unwrap();
    }

    /// Sends `GET path` on `conn` and reads the answer.
    fn get(conn: &mut Conn, path: &str) -> ClientResponse {
        send(conn, path);
        read_response(conn).unwrap()
    }

    /// A loop on its own one-thread pool, so admission does not depend
    /// on the host's CPU count. Its handler answers 200 with the id of
    /// the thread it ran on; `/hold` first reports to `held` and waits
    /// for a `release`, and `/boom` panics.
    struct Gated {
        addr: SocketAddr,
        /// A clone of the loop's listener.
        listener: TcpListener,
        shutdown: Arc<AtomicBool>,
        server: std::thread::JoinHandle<io::Result<()>>,
        held: mpsc::Receiver<()>,
        release: mpsc::Sender<()>,
    }

    impl Gated {
        fn start(queue_depth: usize) -> Gated {
            let listener = TcpListener::bind("127.0.0.1:0").unwrap();
            let (held_tx, held) = mpsc::channel();
            let (release, release_rx) = mpsc::channel::<()>();
            let release_rx = Mutex::new(release_rx);
            let handler: Arc<Handler> = Arc::new(move |request: &Request, _, _| {
                match request.path.as_str() {
                    "/hold" => {
                        held_tx.send(()).unwrap();
                        lock(&release_rx).recv().unwrap();
                    }
                    "/boom" => panic!("handler exploded"),
                    _ => {}
                }
                let thread = format!("{:?}", std::thread::current().id());
                Response::json(200, Json::obj(vec![("thread", Json::str(thread))]).render())
            });
            let shutdown = Arc::new(AtomicBool::new(false));
            let config = EventConfig {
                queue_depth,
                ..EventConfig::default()
            };
            let server = {
                let (listener, shutdown) = (listener.try_clone().unwrap(), shutdown.clone());
                std::thread::spawn(move || {
                    run(&listener, &handler, &shutdown, &config, &Pool::new(1))
                })
            };
            Gated {
                addr: listener.local_addr().unwrap(),
                listener,
                shutdown,
                server,
                held,
                release,
            }
        }

        /// Opens a connection and sends `GET path` on it.
        fn connect(&self, path: &str) -> Conn {
            let stream = TcpStream::connect(self.addr).unwrap();
            stream
                .set_read_timeout(Some(Duration::from_secs(10)))
                .unwrap();
            let mut conn = BufReader::new(stream);
            send(&mut conn, path);
            conn
        }

        /// Sends `/hold`; returns once the pool's only thread holds it.
        fn hold(&self) -> Conn {
            let conn = self.connect("/hold");
            self.held
                .recv_timeout(Duration::from_secs(10))
                .expect("the pool thread starts /hold");
            conn
        }

        /// Holds the pool's thread, then sends `depth + 1` requests on
        /// their own connections: `depth` of them wait for the thread,
        /// and whichever the loop reads last is refused. Returns the
        /// held connection, the waiting ones, and the refused one with
        /// its answer.
        #[cfg(unix)]
        fn fill_queue(&self, depth: usize) -> (Conn, Vec<Conn>, Conn, ClientResponse) {
            let held = self.hold();
            let mut waiting: Vec<Conn> = (0..=depth).map(|_| self.connect("/fine")).collect();
            // While the thread is held only the refused request can be
            // answered.
            let mut fds: Vec<sys::PollFd> = waiting
                .iter()
                .map(|c| sys::PollFd {
                    fd: sys::raw_fd(c.get_ref()),
                    events: sys::POLLIN,
                    revents: 0,
                })
                .collect();
            assert_eq!(sys::poll_wait(&mut fds, 10_000).unwrap(), 1);
            let i = fds.iter().position(|f| f.revents != 0).unwrap();
            let mut refused = waiting.remove(i);
            let answer = read_response(&mut refused).unwrap();
            (held, waiting, refused, answer)
        }

        /// Shuts the loop down and returns how it ended.
        fn stop(self) -> io::Result<()> {
            self.shutdown.store(true, Ordering::SeqCst);
            self.server.join().unwrap()
        }
    }

    #[test]
    fn a_panicking_request_answers_500_and_its_worker_keeps_serving() {
        let server = Gated::start(1);
        let panics = distvliw_obs::global().counter(
            "serve_panics_total",
            "Requests whose handler panicked, answered 500",
        );
        let before = panics.get();
        let mut conn = server.connect("/fine");
        let fine = read_response(&mut conn).unwrap();
        assert_eq!(fine.status, 200);
        assert_eq!(get(&mut conn, "/boom").status, 500);
        assert_eq!(panics.get(), before + 1);
        // The pool's only thread survived the unwind and answers next.
        let again = get(&mut conn, "/fine");
        assert_eq!(again.status, 200);
        assert_eq!(again.body, fine.body, "the same pool thread answers");
        server.stop().unwrap();
    }

    #[cfg(unix)]
    #[test]
    fn queue_overflow_is_answered_503_and_the_connection_survives() {
        const DEPTH: usize = 2;
        let server = Gated::start(DEPTH);
        let (mut held, mut waiting, mut refused, answer) = server.fill_queue(DEPTH);
        assert_eq!(answer.status, 503);
        assert_eq!(answer.header("retry-after"), Some("1"));
        assert!(
            !answer.closes(),
            "queue-full rejection must keep the connection open"
        );
        // The bound holds as long as the thread does.
        assert_eq!(get(&mut refused, "/fine").status, 503);

        server.release.send(()).unwrap();
        assert_eq!(read_response(&mut held).unwrap().status, 200);
        for conn in &mut waiting {
            assert_eq!(read_response(conn).unwrap().status, 200);
        }
        // Every waiting job has started: the retry is admitted.
        assert_eq!(get(&mut refused, "/fine").status, 200);
        server.stop().unwrap();
    }

    #[cfg(unix)]
    #[test]
    fn pipelined_inline_responses_are_answered_iteratively() {
        let server = Gated::start(1);
        let (mut held, mut waiting, mut refused, answer) = server.fill_queue(1);
        assert_eq!(answer.status, 503);

        // One burst of pipelined keep-alive requests into the full
        // queue. The loop answers every one of them inline —
        // iteratively, not one stack frame per buffered request (the
        // old recursive flush→dispatch chain grew the loop thread's
        // stack with each inline answer).
        const N: usize = 1000;
        let burst = "GET /fine HTTP/1.1\r\n\r\n".repeat(N);
        refused.get_mut().write_all(burst.as_bytes()).unwrap();
        for i in 0..N {
            let answer =
                read_response(&mut refused).unwrap_or_else(|e| panic!("answer {i} of {N}: {e}"));
            assert_eq!(answer.status, 503, "answer {i}");
            assert!(!answer.closes(), "answer {i} closed the connection");
        }

        server.release.send(()).unwrap();
        assert_eq!(read_response(&mut held).unwrap().status, 200);
        assert_eq!(read_response(&mut waiting[0]).unwrap().status, 200);
        assert_eq!(get(&mut refused, "/fine").status, 200);
        server.stop().unwrap();
    }

    /// What lets `Server::run` compact its state logs right after this
    /// loop returns: a loop that fails while a request job still runs
    /// waits for that job first.
    #[cfg(target_os = "linux")]
    #[test]
    fn an_error_exit_returns_only_after_every_request_job_finished() {
        use std::net::Shutdown;
        use std::os::fd::OwnedFd;

        let server = Gated::start(1);
        let accept_errors = distvliw_obs::global().counter(
            "serve_accept_errors_total",
            "Accept failures answered with a 20ms backoff",
        );
        let before = accept_errors.get();
        let _held = server.hold();
        // shutdown(2) on the listening socket, through a duplicate of
        // its fd, fails every later accept with EINVAL while poll keeps
        // reporting the listener ready: the loop gives up after
        // ACCEPT_FAILURE_LIMIT tries.
        let listener = TcpStream::from(OwnedFd::from(server.listener.try_clone().unwrap()));
        listener.shutdown(Shutdown::Both).unwrap();
        let deadline = Instant::now() + Duration::from_secs(10);
        while accept_errors.get() < before + u64::from(ACCEPT_FAILURE_LIMIT) {
            assert!(Instant::now() < deadline, "the loop kept its listener");
            std::thread::sleep(Duration::from_millis(10));
        }
        std::thread::sleep(Duration::from_millis(200));
        assert!(
            !server.server.is_finished(),
            "run returned while a request job was still running"
        );
        server.release.send(()).unwrap();
        let err = server.server.join().unwrap().unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidInput);
    }
}
