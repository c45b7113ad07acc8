//! `distvliw-serve`: the long-running experiment service.
//!
//! Exposes the end-to-end pipeline behind an HTTP/1.1 service built on
//! `std::net` only (the build container has no crates.io access, so the
//! HTTP framing and JSON are hand-rolled, mirroring the `third_party/`
//! dependency stand-ins). The engine memoizes experiment cells in a
//! content-addressed [`distvliw_core::cache::ResultCache`] keyed by
//! [`distvliw_core::cachekey::cell_key`], collapses concurrent identical
//! requests with [`distvliw_core::cache::SingleFlight`], and shards each request's
//! cell misses across the resident pool of `distvliw_core::par` — so
//! repeated figure regenerations are incremental instead of recomputing
//! the whole grid.
//!
//! Connections are served by an event-driven layer ([`event`]): one
//! poll(2) readiness loop owns every socket, each parsed request runs as
//! a job on that same pool behind a bounded admission count, and
//! overload is answered `503` with `retry-after` instead of unbounded
//! thread growth. Sizing is a [`event::EventConfig`] (`--max-conns`,
//! `--queue-depth` on the `serve` bin).
//!
//! Endpoints: `GET /fig6 /fig7 /fig9 /table3 /table4 /table5 /nobal
//! /sweep /healthz /stats`, `POST /matrix` (arbitrary grids, with
//! machine overrides) and `POST /shutdown`. `GET /sweep` serves the
//! cluster-count × memory-bus sensitivity sweep, sharded through the
//! same cache. See `docs/serving.md` and `docs/workloads.md` for the
//! reference.
//!
//! ```no_run
//! use distvliw_arch::MachineConfig;
//! use distvliw_serve::{engine::ServeEngine, Server};
//!
//! let engine = ServeEngine::new(MachineConfig::paper_baseline(), 256);
//! let server = Server::bind("127.0.0.1:7411", engine).expect("bind");
//! println!("listening on {}", server.local_addr());
//! server.run().expect("serve");
//! ```

// `deny`, not `forbid`: the one `#[allow(unsafe_code)]` in the
// workspace is the poll(2) FFI declaration in `event::sys`.
#![deny(unsafe_code)]
#![warn(missing_docs)]

/// Re-exported for the benchmark harness, which imports it from here.
pub use distvliw_core::cache;
pub mod client;
pub mod endpoints;
pub mod engine;
pub mod event;
pub mod http;
pub mod json;
pub mod persist;

use std::io;
use std::net::{SocketAddr, TcpListener};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use engine::ServeEngine;
use event::EventConfig;

/// The serving front door: owns the listener and the engine, runs the
/// event loop until a `POST /shutdown` arrives.
pub struct Server {
    listener: TcpListener,
    engine: Arc<ServeEngine>,
    shutdown: Arc<AtomicBool>,
    config: EventConfig,
}

impl Server {
    /// Binds `addr` (e.g. `127.0.0.1:7411`; port 0 picks an ephemeral
    /// port) with default [`EventConfig`] sizing.
    ///
    /// # Errors
    ///
    /// Propagates bind failures.
    pub fn bind(addr: &str, engine: ServeEngine) -> io::Result<Server> {
        Server::bind_with(addr, engine, EventConfig::default())
    }

    /// Binds `addr` with explicit connection-layer sizing.
    ///
    /// # Errors
    ///
    /// Propagates bind failures.
    pub fn bind_with(addr: &str, engine: ServeEngine, config: EventConfig) -> io::Result<Server> {
        Ok(Server {
            listener: TcpListener::bind(addr)?,
            engine: Arc::new(engine),
            shutdown: Arc::new(AtomicBool::new(false)),
            config,
        })
    }

    /// The bound address.
    ///
    /// # Panics
    ///
    /// Panics if the listener has no local address (cannot happen after
    /// a successful bind).
    #[must_use]
    pub fn local_addr(&self) -> SocketAddr {
        self.listener.local_addr().expect("bound listener")
    }

    /// The shared engine (for tests and embedding).
    #[must_use]
    pub fn engine(&self) -> &Arc<ServeEngine> {
        &self.engine
    }

    /// Serves connections until shutdown: runs the [`event`] readiness
    /// loop on the calling thread, with each request computed on the
    /// process-wide pool of `distvliw_core::par`.
    ///
    /// # Errors
    ///
    /// Propagates listener failures (an escalated accept failure ends
    /// the loop; per-connection I/O errors only end that connection).
    pub fn run(self) -> io::Result<()> {
        // Periodic state flush: the cell log reaches disk within a few
        // seconds even if the machine later goes down uncleanly. Exits
        // with the shutdown flag.
        let flusher = {
            let engine = self.engine.clone();
            let shutdown = self.shutdown.clone();
            std::thread::spawn(move || {
                let mut ticks = 0u32;
                while !shutdown.load(Ordering::SeqCst) {
                    std::thread::sleep(std::time::Duration::from_millis(250));
                    ticks += 1;
                    if ticks.is_multiple_of(20) {
                        engine.flush_state(false);
                    }
                }
            })
        };
        let engine = self.engine.clone();
        let handler: Arc<event::Handler> = Arc::new(move |request, parse_start, parse_dur| {
            endpoints::serve_request(&engine, request, parse_start, parse_dur)
        });
        let pool = distvliw_core::par::global();
        let result = event::run(&self.listener, &handler, &self.shutdown, &self.config, pool);
        // The loop only returns once every request job it submitted has
        // finished, whether it drained or failed; make sure the flusher
        // sees the flag even when the loop exited on an error.
        self.shutdown.store(true, Ordering::SeqCst);
        let _ = flusher.join();
        // Clean shutdown compacts the cell log, so recency drift from
        // cache hits since the last eviction survives the restart.
        self.engine.flush_state(true);
        result
    }
}
