//! Kill-and-restart test of the durable warm state: a real `serve`
//! daemon process on an ephemeral port with a temp `--state-dir`,
//! warmed through HTTP, killed with SIGKILL (no shutdown hook runs),
//! and rebooted on the same state dir.
//!
//! The acceptance properties pinned here:
//!
//! - the first post-restart `/fig7` and `/sweep` responses are served
//!   entirely from the restored cache — zero cells computed — and are
//!   **byte-identical** to the pre-kill responses;
//! - nothing is discarded at recovery (every append is crash-safe);
//! - a post-restart cell that *does* schedule (a fresh cell key via a
//!   simulation-only machine override) searches cold: the schedule memo
//!   is not persisted, so no schedule survives the restart;
//! - a stale-era state dir is discarded wholesale, not trusted, and the
//!   recomputed cell renders the same bytes;
//! - after a warm-up that evicts, the replayed log (tombstones and all)
//!   restores exactly the resident cells.

use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::Duration;

use distvliw_serve::client;
use distvliw_serve::json::{self, Json};

/// A unique temp dir per test, removed on drop.
struct TempDir(PathBuf);

impl TempDir {
    fn new(tag: &str) -> TempDir {
        let dir =
            std::env::temp_dir().join(format!("distvliw-restart-{tag}-{}", std::process::id()));
        // A leftover from a previous crashed run must not leak state in.
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("create temp state dir");
        TempDir(dir)
    }

    fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// A `serve` child process; killed (SIGKILL) on drop unless already
/// waited for.
struct Daemon {
    child: Child,
    base: String,
}

impl Daemon {
    /// Spawns the real `serve` binary on `addr` with the given state
    /// dir and waits until `/healthz` answers.
    fn spawn(addr: &str, state_dir: &Path) -> Daemon {
        Daemon::spawn_with(addr, state_dir, &[])
    }

    /// [`Daemon::spawn`] with extra command-line flags.
    fn spawn_with(addr: &str, state_dir: &Path, flags: &[&str]) -> Daemon {
        let child = Command::new(env!("CARGO_BIN_EXE_serve"))
            .args(["--addr", addr, "--state-dir"])
            .arg(state_dir)
            .args(flags)
            .stdout(Stdio::null())
            .stderr(Stdio::inherit())
            .spawn()
            .expect("spawn serve daemon");
        let daemon = Daemon {
            child,
            base: format!("http://{addr}"),
        };
        for _ in 0..200 {
            if let Ok(resp) = client::get(&daemon.base, "/healthz") {
                assert_eq!(resp.status, 200);
                return daemon;
            }
            std::thread::sleep(Duration::from_millis(50));
        }
        panic!("daemon did not become healthy within 10s");
    }

    /// SIGKILL — the process gets no chance to flush or compact.
    fn kill(mut self) {
        self.child.kill().expect("kill daemon");
        self.child.wait().expect("reap daemon");
    }

    /// Clean shutdown via `POST /shutdown` (runs the flush hook).
    fn shutdown(mut self) {
        let resp = client::post(&self.base, "/shutdown", "").expect("shutdown");
        assert_eq!(resp.status, 200);
        let status = self.child.wait().expect("reap daemon");
        assert!(status.success(), "clean shutdown exits zero");
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// Picks an ephemeral loopback address by binding port 0 and releasing
/// it (a small race with other tests, which is why each test uses its
/// own pick).
fn free_addr() -> String {
    let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("probe port");
    let addr = listener.local_addr().expect("probe addr");
    addr.to_string()
}

fn get_ok(base: &str, path: &str) -> Vec<u8> {
    let resp = client::get(base, path).unwrap_or_else(|e| panic!("GET {path}: {e}"));
    assert_eq!(resp.status, 200, "GET {path}");
    resp.body
}

fn stats(base: &str) -> Json {
    let body = get_ok(base, "/stats");
    json::parse(std::str::from_utf8(&body).expect("utf-8 stats")).expect("stats json")
}

fn field(v: &Json, path: &[&str]) -> u64 {
    let mut cur = v;
    for key in path {
        cur = cur.get(key).unwrap_or_else(|| panic!("missing {key}"));
    }
    cur.as_u64().expect("integer stat")
}

#[test]
fn sigkilled_daemon_restarts_with_warm_cache() {
    let state = TempDir::new("warm");
    let addr = free_addr();

    // --- First life: warm the cache over HTTP, then SIGKILL. ---
    let daemon = Daemon::spawn(&addr, state.path());
    let fig7_cold = get_ok(&daemon.base, "/fig7");
    let sweep_cold = get_ok(&daemon.base, "/sweep");
    let s = stats(&daemon.base);
    let computed_cold = field(&s, &["computed_cells"]);
    assert!(computed_cold > 0, "first life computed cells");
    assert!(
        field(&s, &["persist", "appended_records"]) > 0,
        "inserts reach the log as they happen, not at shutdown"
    );
    daemon.kill();

    // --- Second life, same state dir: everything is already there. ---
    let addr = free_addr();
    let daemon = Daemon::spawn(&addr, state.path());
    let s = stats(&daemon.base);
    assert!(
        field(&s, &["persist", "loaded_cells"]) > 0,
        "cells restored at boot"
    );
    assert_eq!(
        field(&s, &["persist", "discarded_bytes"]),
        0,
        "every record survived the SIGKILL (appends are crash-safe)"
    );
    assert_eq!(field(&s, &["persist", "stale_stores"]), 0);

    let fig7_warm = get_ok(&daemon.base, "/fig7");
    assert_eq!(
        fig7_warm, fig7_cold,
        "first post-restart /fig7 is byte-identical to the pre-kill response"
    );
    let sweep_warm = get_ok(&daemon.base, "/sweep");
    assert_eq!(
        sweep_warm, sweep_cold,
        "first post-restart /sweep is byte-identical to the pre-kill response"
    );
    let s = stats(&daemon.base);
    assert_eq!(
        field(&s, &["computed_cells"]),
        0,
        "warm boot serves both figures without recomputing a single cell"
    );
    assert!(field(&s, &["cache", "hits"]) > 0);

    // A fresh cell key (memory-bus count is a simulation-only override,
    // so the cache misses) with an unchanged scheduler projection. In
    // the first life jpegenc/DDGT (part of the /fig7 grid) solved the
    // scheduling problems this cell poses, and it schedules above
    // MII + slack, so a schedule memo hit would show as a seeded
    // kernel. The memo does not survive the restart, and the warm
    // figures scheduled nothing, so the search starts cold.
    let resp = client::post(
        &daemon.base,
        "/matrix",
        r#"{"suites":["jpegenc"],"solutions":["ddgt"],"heuristics":["prefclus"],
            "machine":{"mem_buses":{"count":3}}}"#,
    )
    .expect("matrix");
    assert_eq!(resp.status, 200);
    let s = stats(&daemon.base);
    assert_eq!(
        field(&s, &["computed_cells"]),
        1,
        "the override is a fresh cell"
    );
    assert_eq!(
        field(&s, &["seeded_kernels"]),
        0,
        "the fresh cell's II search started cold (no seed survives a restart)"
    );

    daemon.shutdown();
}

#[test]
fn clean_shutdown_then_restart_preserves_recency_and_state() {
    let state = TempDir::new("clean");
    let addr = free_addr();

    let daemon = Daemon::spawn(&addr, state.path());
    let body = r#"{"suites":["gsmdec"],"solutions":["mdc"],"heuristics":["prefclus"]}"#;
    let cold = client::post(&daemon.base, "/matrix", body).expect("matrix");
    assert_eq!(cold.status, 200);
    daemon.shutdown();

    // The shutdown flush compacts: the log is one clean snapshot.
    let addr = free_addr();
    let daemon = Daemon::spawn(&addr, state.path());
    let s = stats(&daemon.base);
    assert_eq!(field(&s, &["persist", "loaded_cells"]), 1);
    assert_eq!(field(&s, &["persist", "discarded_records"]), 0);
    assert_eq!(field(&s, &["persist", "discarded_bytes"]), 0);
    let warm = client::post(&daemon.base, "/matrix", body).expect("matrix");
    assert_eq!(warm.body, cold.body, "restored cell renders byte-identical");
    assert_eq!(field(&stats(&daemon.base), &["computed_cells"]), 0);
    daemon.shutdown();
}

#[test]
fn stale_era_state_is_discarded_not_trusted() {
    let state = TempDir::new("stale");
    let addr = free_addr();

    let daemon = Daemon::spawn(&addr, state.path());
    let body = r#"{"suites":["gsmdec"],"solutions":["mdc"],"heuristics":["prefclus"]}"#;
    let cold = client::post(&daemon.base, "/matrix", body).expect("matrix");
    assert_eq!(cold.status, 200);
    daemon.shutdown();

    // Flip the era fingerprint inside the cell log's header, as if it
    // had been written by a binary with different canonical encodings.
    let path = state.path().join("cells.log");
    let mut bytes = std::fs::read(&path).expect("read log");
    bytes[16] ^= 0xff; // first era byte
    std::fs::write(&path, bytes).expect("write log");

    let addr = free_addr();
    let daemon = Daemon::spawn(&addr, state.path());
    let s = stats(&daemon.base);
    assert_eq!(field(&s, &["persist", "stale_stores"]), 1);
    assert_eq!(field(&s, &["persist", "loaded_cells"]), 0);
    assert!(field(&s, &["persist", "discarded_bytes"]) > 0);
    // The stale store was healed away: the cell recomputes, renders the
    // same bytes as before, and the *next* boot is clean.
    let recomputed = client::post(&daemon.base, "/matrix", body).expect("matrix");
    assert_eq!(recomputed.status, 200);
    assert_eq!(
        recomputed.body, cold.body,
        "a cell recomputed after a restart renders the same bytes"
    );
    assert_eq!(field(&stats(&daemon.base), &["computed_cells"]), 1);
    daemon.shutdown();

    let addr = free_addr();
    let daemon = Daemon::spawn(&addr, state.path());
    let s = stats(&daemon.base);
    assert_eq!(
        field(&s, &["persist", "stale_stores"]),
        0,
        "healed at the previous boot"
    );
    assert_eq!(field(&s, &["persist", "loaded_cells"]), 1);
    daemon.shutdown();
}

#[test]
fn sigkill_after_evictions_restores_exactly_the_resident_cells() {
    let state = TempDir::new("evict");
    // Four fresh cells (the bus count is a simulation-only override, so
    // no /fig7 cell shares their keys): with a capacity of four they end
    // up the whole resident set.
    let body = r#"{"suites":["gsmdec"],"solutions":["mdc","ddgt"],"heuristics":["prefclus","mincoms"],
        "machine":{"mem_buses":{"count":3}}}"#;

    let daemon = Daemon::spawn_with(&free_addr(), state.path(), &["--cache-capacity", "4"]);
    get_ok(&daemon.base, "/fig7");
    let cold = client::post(&daemon.base, "/matrix", body).expect("matrix");
    assert_eq!(cold.status, 200);
    let s = stats(&daemon.base);
    let evictions = field(&s, &["cache", "evictions"]);
    assert!(evictions > 0, "warming /fig7 overflows four cells");
    assert!(
        field(&s, &["persist", "compactions"]) < evictions,
        "evictions append tombstones instead of rewriting the log each time"
    );
    let resident = field(&s, &["cache", "entries"]);
    assert_eq!(resident, 4);
    daemon.kill();

    // Reboot with room for every cell ever computed, so a replay that
    // missed a tombstone would show as an extra loaded cell rather than
    // be hidden by capacity eviction.
    let daemon = Daemon::spawn_with(&free_addr(), state.path(), &["--cache-capacity", "256"]);
    let s = stats(&daemon.base);
    assert_eq!(field(&s, &["persist", "loaded_cells"]), resident);
    assert_eq!(field(&s, &["persist", "discarded_bytes"]), 0);
    let warm = client::post(&daemon.base, "/matrix", body).expect("matrix");
    assert_eq!(warm.body, cold.body, "restored cells render byte-identical");
    assert_eq!(
        field(&stats(&daemon.base), &["computed_cells"]),
        0,
        "every resident cell was restored"
    );
    daemon.shutdown();
}
