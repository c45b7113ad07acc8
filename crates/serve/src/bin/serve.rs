//! The `distvliw-serve` daemon: binds an address and serves the
//! experiment endpoints until `POST /shutdown`.
//!
//! ```text
//! cargo run --release -p distvliw-serve --bin serve -- \
//!     [--addr 127.0.0.1:7411] [--cache-capacity 256] [--state-dir DIR] \
//!     [--access-log PATH|-] [--slow-ms N] \
//!     [--max-conns N] [--queue-depth N] [--check]
//! ```
//!
//! With `--state-dir` the result cache persists across restarts (a
//! crash-safe log-structured file; see `docs/persistence.md`).
//! `--access-log` writes one structured JSON line per request (`-` for
//! stdout); `--slow-ms` warns on requests over the threshold (see
//! `docs/observability.md`). `--max-conns` and `--queue-depth` size
//! the event-driven connection layer (see `docs/serving.md`); overload
//! beyond the caps is answered `503` with `retry-after`. `--check` runs
//! the independent static schedule verifier on every compiled cell,
//! failing the cell rather than serving an illegal schedule
//! (`docs/checking.md`). Requests and their cell fan-out run on one
//! resident pool whose width `DISTVLIW_THREADS` sets (the CPU count by
//! default), like every other bin's fan-out.

use std::process::ExitCode;

use distvliw_arch::MachineConfig;
use distvliw_serve::engine::ServeEngine;
use distvliw_serve::event::EventConfig;
use distvliw_serve::Server;

fn main() -> ExitCode {
    let mut addr = "127.0.0.1:7411".to_string();
    let mut capacity: usize = 256;
    let mut state_dir: Option<std::path::PathBuf> = None;
    let mut access_log: Option<String> = None;
    let mut slow_ms: u64 = 30_000;
    let mut check = false;
    let mut config = EventConfig::default();
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--addr" => match args.next() {
                Some(v) => addr = v,
                None => return usage("--addr needs a value"),
            },
            "--cache-capacity" => match args.next().and_then(|v| v.parse().ok()) {
                Some(v) if v > 0 => capacity = v,
                _ => return usage("--cache-capacity needs a positive integer"),
            },
            "--state-dir" => match args.next() {
                Some(v) => state_dir = Some(v.into()),
                None => return usage("--state-dir needs a path"),
            },
            "--access-log" => match args.next() {
                Some(v) => access_log = Some(v),
                None => return usage("--access-log needs a path (or `-` for stdout)"),
            },
            "--slow-ms" => match args.next().and_then(|v| v.parse().ok()) {
                Some(v) => slow_ms = v,
                None => return usage("--slow-ms needs a non-negative integer"),
            },
            "--max-conns" => match args.next().and_then(|v| v.parse().ok()) {
                Some(v) if v > 0 => config.max_conns = v,
                _ => return usage("--max-conns needs a positive integer"),
            },
            "--queue-depth" => match args.next().and_then(|v| v.parse().ok()) {
                Some(v) if v > 0 => config.queue_depth = v,
                _ => return usage("--queue-depth needs a positive integer"),
            },
            "--check" => check = true,
            "--help" | "-h" => {
                println!("{USAGE}");
                return ExitCode::SUCCESS;
            }
            other => return usage(&format!("unknown argument `{other}`")),
        }
    }

    // Anchor span timestamps at process start, install the structured
    // logger and the slow-request threshold before any request runs.
    distvliw_obs::trace::init();
    if let Err(e) = distvliw_obs::logger::init(access_log.as_deref()) {
        eprintln!(
            "cannot open access log {}: {e}",
            access_log.as_deref().unwrap_or("-")
        );
        return ExitCode::FAILURE;
    }
    distvliw_serve::endpoints::set_slow_request_ms(slow_ms);

    let mut engine = ServeEngine::new(MachineConfig::paper_baseline(), capacity).with_check(check);
    if let Some(dir) = &state_dir {
        engine = match engine.with_state_dir(dir) {
            Ok(engine) => engine,
            Err(e) => {
                eprintln!("cannot open state dir {}: {e}", dir.display());
                return ExitCode::FAILURE;
            }
        };
        if let Some(p) = engine.stats().persist {
            println!(
                "state: {} cells restored from {} ({} records / {} bytes discarded, {} stale stores)",
                p.loaded_cells,
                dir.display(),
                p.discarded_records,
                p.discarded_bytes,
                p.stale_stores,
            );
        }
    }
    let server = match Server::bind_with(&addr, engine, config) {
        Ok(server) => server,
        Err(e) => {
            eprintln!("cannot bind {addr}: {e}");
            return ExitCode::FAILURE;
        }
    };
    println!(
        "distvliw-serve listening on http://{} ({} max conns, queue depth {})",
        server.local_addr(),
        config.max_conns,
        config.queue_depth,
    );
    match server.run() {
        Ok(()) => {
            println!("distvliw-serve shut down");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("serve failed: {e}");
            ExitCode::FAILURE
        }
    }
}

const USAGE: &str = "usage: serve [--addr HOST:PORT] [--cache-capacity N] [--state-dir DIR] [--access-log PATH|-] [--slow-ms N] [--max-conns N] [--queue-depth N] [--check]";

fn usage(msg: &str) -> ExitCode {
    eprintln!("{msg}\n{USAGE}");
    ExitCode::FAILURE
}
