//! `servecli`: client and load generator for the `serve` daemon.
//!
//! ```text
//! servecli BASE get PATH              # print one response body
//! servecli BASE smoke [--shutdown] [--expect-warm]  # CI smoke
//! servecli BASE state                 # persistence counters
//! servecli BASE load PATH [-n N] [-c C] [--json]  # latency under load
//! servecli BASE metrics [--require NAME,NAME,...]  # scrape /metrics
//! servecli BASE trace [-n N]          # recent spans from /debug/trace
//! servecli BASE shutdown              # stop the daemon
//! ```
//!
//! `smoke` drives `/healthz`, a figure endpoint and a repeated request,
//! asserting via `/stats` that the repeat was served from the result
//! cache and that warm bytes equal cold bytes; any failure exits
//! nonzero. With `--expect-warm` it additionally asserts the *first*
//! figure fetch computed zero cells — the restart check for a daemon
//! booted from a persisted `--state-dir`. `state` reports the
//! persistence counters (cells restored at boot, records and
//! bytes discarded at recovery, appends/compactions/flushes since).
//! `load` replays N concurrent requests (C persistent keep-alive
//! connections — thousands are fine against the event-loop server)
//! against a warm cache and reports latency percentiles from a merged
//! `distvliw_obs` histogram (`--json` for machine-readable output),
//! demonstrating that cache hits cost microseconds while the cold run
//! costs the full pipeline. Deliberate overload 503s are backed off,
//! retried and counted (`rejected_503`); any other non-200 fails the
//! run. `metrics` scrapes and validates the
//! Prometheus exposition, failing if any `--require`d family is absent;
//! `trace` prints the most recent spans from the global rings, each
//! with its fields.

use std::io::{ErrorKind, Write as _};
use std::process::ExitCode;
use std::time::{Duration, Instant};

use distvliw_obs::Histogram;
use distvliw_serve::client::{self, Client};
use distvliw_serve::json;

/// `println!` through a locked stdout. A closed reader (`servecli … |
/// head`) ends the process with a clean exit instead of a panic.
macro_rules! say {
    ($($arg:tt)*) => {
        if let Err(e) = writeln!(std::io::stdout().lock(), $($arg)*) {
            if e.kind() != ErrorKind::BrokenPipe {
                eprintln!("servecli: writing stdout: {e}");
                std::process::exit(1);
            }
            std::process::exit(0);
        }
    };
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (base, rest) = match args.split_first() {
        Some((base, rest)) => (base.clone(), rest.to_vec()),
        None => return usage(),
    };
    match rest.first().map(String::as_str) {
        Some("get") => match rest.get(1) {
            Some(path) => cmd_get(&base, path),
            None => usage(),
        },
        Some("smoke") => cmd_smoke(
            &base,
            rest.iter().any(|a| a == "--shutdown"),
            rest.iter().any(|a| a == "--expect-warm"),
        ),
        Some("state") => cmd_state(&base),
        Some("load") => {
            let path = match rest.get(1) {
                Some(p) if !p.starts_with('-') => p.clone(),
                _ => return usage(),
            };
            let mut n = 100usize;
            let mut c = 8usize;
            let mut json_out = false;
            let mut it = rest.iter().skip(2);
            while let Some(flag) = it.next() {
                if flag == "--json" {
                    json_out = true;
                    continue;
                }
                let value = it.next().and_then(|v| v.parse::<usize>().ok());
                match (flag.as_str(), value) {
                    ("-n", Some(v)) if v > 0 => n = v,
                    ("-c", Some(v)) if v > 0 => c = v,
                    _ => return usage(),
                }
            }
            cmd_load(&base, &path, n, c, json_out)
        }
        Some("metrics") => {
            let mut required: Vec<String> = Vec::new();
            let mut it = rest.iter().skip(1);
            while let Some(flag) = it.next() {
                match (flag.as_str(), it.next()) {
                    ("--require", Some(list)) => {
                        required.extend(list.split(',').map(str::to_string));
                    }
                    _ => return usage(),
                }
            }
            cmd_metrics(&base, &required)
        }
        Some("trace") => {
            let mut n = 64usize;
            let mut it = rest.iter().skip(1);
            while let Some(flag) = it.next() {
                match (
                    flag.as_str(),
                    it.next().and_then(|v| v.parse::<usize>().ok()),
                ) {
                    ("-n", Some(v)) if v > 0 => n = v,
                    _ => return usage(),
                }
            }
            cmd_trace(&base, n)
        }
        Some("shutdown") => match client::post(&base, "/shutdown", "") {
            Ok(resp) if resp.status == 200 => ExitCode::SUCCESS,
            Ok(resp) => fail(&format!("shutdown returned {}", resp.status)),
            Err(e) => fail(&format!("shutdown failed: {e}")),
        },
        _ => usage(),
    }
}

fn usage() -> ExitCode {
    eprintln!(
        "usage: servecli BASE get PATH\n       \
         servecli BASE smoke [--shutdown] [--expect-warm]\n       \
         servecli BASE state\n       \
         servecli BASE load PATH [-n N] [-c C] [--json]\n       \
         servecli BASE metrics [--require NAME,NAME,...]\n       \
         servecli BASE trace [-n N]\n       servecli BASE shutdown"
    );
    ExitCode::FAILURE
}

fn fail(msg: &str) -> ExitCode {
    eprintln!("servecli: {msg}");
    ExitCode::FAILURE
}

fn cmd_get(base: &str, path: &str) -> ExitCode {
    match client::get(base, path) {
        Ok(resp) => {
            say!("{}", String::from_utf8_lossy(&resp.body));
            if resp.status == 200 {
                ExitCode::SUCCESS
            } else {
                fail(&format!("{path} returned {}", resp.status))
            }
        }
        Err(e) => fail(&format!("GET {path} failed: {e}")),
    }
}

/// `/stats` counters the smoke test tracks.
struct Stats {
    hits: u64,
    computed: u64,
    threads: u64,
}

fn read_stats(base: &str) -> Result<Stats, String> {
    let resp = client::get(base, "/stats").map_err(|e| format!("GET /stats failed: {e}"))?;
    if resp.status != 200 {
        return Err(format!("/stats returned {}", resp.status));
    }
    let text = String::from_utf8_lossy(&resp.body).to_string();
    let v = json::parse(&text).map_err(|e| format!("bad /stats json: {e}"))?;
    let field = |path: &[&str]| -> Result<u64, String> {
        let mut cur = &v;
        for key in path {
            cur = cur
                .get(key)
                .ok_or_else(|| format!("/stats missing {}", path.join(".")))?;
        }
        cur.as_u64()
            .ok_or_else(|| format!("/stats {} is not an integer", path.join(".")))
    };
    Ok(Stats {
        hits: field(&["cache", "hits"])?,
        computed: field(&["computed_cells"])?,
        threads: field(&["threads"]).unwrap_or(0),
    })
}

fn wait_healthy(base: &str) -> Result<(), String> {
    for _ in 0..100 {
        if let Ok(resp) = client::get(base, "/healthz") {
            if resp.status == 200 {
                return Ok(());
            }
            return Err(format!("/healthz returned {}", resp.status));
        }
        std::thread::sleep(Duration::from_millis(150));
    }
    Err("server did not become healthy within 15s".to_string())
}

/// `servecli BASE state`: print the persistence counters from `/stats`.
fn cmd_state(base: &str) -> ExitCode {
    if let Err(e) = wait_healthy(base) {
        return fail(&e);
    }
    let resp = match client::get(base, "/stats") {
        Ok(resp) if resp.status == 200 => resp,
        Ok(resp) => return fail(&format!("/stats returned {}", resp.status)),
        Err(e) => return fail(&format!("GET /stats failed: {e}")),
    };
    let text = String::from_utf8_lossy(&resp.body).to_string();
    let v = match json::parse(&text) {
        Ok(v) => v,
        Err(e) => return fail(&format!("bad /stats json: {e}")),
    };
    let Some(p) = v.get("persist").filter(|p| !matches!(p, json::Json::Null)) else {
        say!("state: no state dir (persistence disabled)");
        return ExitCode::SUCCESS;
    };
    let field = |name: &str| p.get(name).and_then(json::Json::as_u64).unwrap_or(0);
    say!(
        "state: loaded {} cells; discarded {} records / {} bytes ({} stale stores)",
        field("loaded_cells"),
        field("discarded_records"),
        field("discarded_bytes"),
        field("stale_stores"),
    );
    say!(
        "state: since boot {} appends, {} compactions, {} flushes, {} write errors",
        field("appended_records"),
        field("compactions"),
        field("flushes"),
        field("write_errors"),
    );
    ExitCode::SUCCESS
}

/// The CI smoke sequence; see the module docs.
fn cmd_smoke(base: &str, shutdown: bool, expect_warm: bool) -> ExitCode {
    let outcome = smoke(base, expect_warm);
    let code = match outcome {
        Ok(()) => {
            say!("smoke: ok");
            ExitCode::SUCCESS
        }
        Err(e) => fail(&e),
    };
    if shutdown {
        match client::post(base, "/shutdown", "") {
            Ok(resp) if resp.status == 200 => {}
            Ok(resp) => return fail(&format!("shutdown returned {}", resp.status)),
            Err(e) => return fail(&format!("shutdown failed: {e}")),
        }
    }
    code
}

fn smoke(base: &str, expect_warm: bool) -> Result<(), String> {
    wait_healthy(base)?;
    say!("smoke: /healthz ok");

    // Build/uptime metadata: every deployment question starts with
    // "which build is this and how long has it been up?".
    {
        let resp = client::get(base, "/stats").map_err(|e| format!("GET /stats failed: {e}"))?;
        let text = String::from_utf8_lossy(&resp.body).to_string();
        let v = json::parse(&text).map_err(|e| format!("bad /stats json: {e}"))?;
        if v.get("uptime_secs").and_then(json::Json::as_u64).is_none() {
            return Err("/stats missing uptime_secs".to_string());
        }
        let version = v
            .get("build")
            .and_then(|b| b.get("version"))
            .and_then(json::Json::as_str)
            .ok_or("/stats missing build.version")?;
        say!("smoke: /stats build version {version} ok");
    }

    let before = read_stats(base)?;
    let cold = client::get(base, "/fig6").map_err(|e| format!("GET /fig6 failed: {e}"))?;
    if cold.status != 200 {
        return Err(format!("/fig6 returned {}", cold.status));
    }
    let mid = read_stats(base)?;
    if mid.computed < before.computed {
        return Err("computed_cells went backwards".to_string());
    }
    if expect_warm && mid.computed != before.computed {
        return Err(format!(
            "first /fig6 after restart recomputed {} cells; expected the persisted \
             state to serve it entirely from the cache",
            mid.computed - before.computed
        ));
    }
    say!(
        "smoke: /fig6 {} ok ({} bytes, {} cells computed)",
        if expect_warm { "warm-boot" } else { "cold" },
        cold.body.len(),
        mid.computed - before.computed
    );

    let warm = client::get(base, "/fig6").map_err(|e| format!("GET /fig6 repeat failed: {e}"))?;
    if warm.status != 200 {
        return Err(format!("repeated /fig6 returned {}", warm.status));
    }
    if warm.body != cold.body {
        return Err("warm /fig6 response differs from cold response".to_string());
    }
    let after = read_stats(base)?;
    if after.hits <= mid.hits {
        return Err(format!(
            "repeated /fig6 did not hit the cache (hits {} -> {})",
            mid.hits, after.hits
        ));
    }
    if after.computed != mid.computed {
        return Err(format!(
            "repeated /fig6 recomputed cells ({} -> {})",
            mid.computed, after.computed
        ));
    }
    say!(
        "smoke: /fig6 warm ok (byte-identical, +{} cache hits, 0 recomputes)",
        after.hits - mid.hits
    );

    // An arbitrary grid through POST /matrix, twice.
    let body = r#"{"suites":["gsmdec"],"solutions":["mdc"],"heuristics":["prefclus"]}"#;
    let cold = client::post(base, "/matrix", body).map_err(|e| format!("POST /matrix: {e}"))?;
    if cold.status != 200 {
        return Err(format!("/matrix returned {}", cold.status));
    }
    let warm = client::post(base, "/matrix", body).map_err(|e| format!("POST /matrix: {e}"))?;
    if warm.body != cold.body {
        return Err("warm /matrix response differs from cold response".to_string());
    }
    say!("smoke: /matrix ok (byte-identical on repeat)");
    Ok(())
}

/// Per-worker tally from one load connection.
struct WorkerResult {
    hist: Histogram,
    rejected_503: u64,
    reconnects: u64,
    error: Option<String>,
}

/// Replays `n` requests over `c` persistent keep-alive connections and
/// reports latency percentiles from a merged `distvliw_obs` histogram.
///
/// Scales to thousands of connections against the event-loop server:
/// deliberate overload answers (`503` with `retry-after`, from the
/// bounded queue or the connection cap) are counted, backed off and
/// retried rather than failing the run — any *other* non-200 still
/// fails — and a connection the server closes (`max-conns` rejection,
/// idle reap) is transparently re-dialed. Every successful response
/// must stay byte-identical to the warm reference.
fn cmd_load(base: &str, path: &str, n: usize, c: usize, json_out: bool) -> ExitCode {
    /// Attempts per request before declaring the server unreachable
    /// (covers sustained 503 storms at ~20ms backoff each).
    const MAX_ATTEMPTS: u32 = 500;
    const RETRY_BACKOFF: Duration = Duration::from_millis(20);
    if let Err(e) = wait_healthy(base) {
        return fail(&e);
    }
    // Warm the cache and capture the reference bytes.
    let t0 = Instant::now();
    let reference = match client::get(base, path) {
        Ok(resp) if resp.status == 200 => resp.body,
        Ok(resp) => return fail(&format!("{path} returned {}", resp.status)),
        Err(e) => return fail(&format!("warmup GET {path} failed: {e}")),
    };
    let cold_ms = t0.elapsed().as_secs_f64() * 1e3;

    let before = match read_stats(base) {
        Ok(s) => s,
        Err(e) => return fail(&e),
    };
    let clients = c.min(n);
    // Per-worker histograms, merged after the joins; merging fixed
    // log-scale buckets is exact (identical to one shared histogram).
    let latencies = Histogram::new();
    let mut rejected_503 = 0u64;
    let mut reconnects = 0u64;
    let mut failures: Vec<String> = Vec::new();
    std::thread::scope(|scope| {
        let reference = &reference;
        let handles: Vec<_> = (0..clients)
            .map(|w| {
                // Split n as evenly as possible across clients.
                let quota = n / clients + usize::from(w < n % clients);
                scope.spawn(move || {
                    let mut out = WorkerResult {
                        hist: Histogram::new(),
                        rejected_503: 0,
                        reconnects: 0,
                        error: None,
                    };
                    let mut conn: Option<Client> = None;
                    'requests: for _ in 0..quota {
                        for attempt in 0.. {
                            if attempt >= MAX_ATTEMPTS {
                                out.error = Some(format!("gave up after {MAX_ATTEMPTS} attempts"));
                                break 'requests;
                            }
                            let client = match &mut conn {
                                Some(client) => client,
                                None => match Client::connect(base) {
                                    Ok(client) => conn.insert(client),
                                    Err(_) => {
                                        // Accept backlog overflow under
                                        // the connection storm: back off
                                        // and re-dial.
                                        std::thread::sleep(RETRY_BACKOFF);
                                        continue;
                                    }
                                },
                            };
                            let t = Instant::now();
                            match client.get(path) {
                                Ok(resp) if resp.status == 503 => {
                                    out.rejected_503 += 1;
                                    if resp.closes() {
                                        conn = None;
                                        out.reconnects += 1;
                                    }
                                    std::thread::sleep(RETRY_BACKOFF);
                                }
                                Ok(resp) if resp.status == 200 && &resp.body == reference => {
                                    out.hist.record_micros(t.elapsed());
                                    if resp.closes() {
                                        conn = None;
                                        out.reconnects += 1;
                                    }
                                    continue 'requests;
                                }
                                Ok(resp) if resp.status == 200 => {
                                    out.error = Some("body mismatch".to_string());
                                    break 'requests;
                                }
                                Ok(resp) => {
                                    out.error = Some(format!("status {}", resp.status));
                                    break 'requests;
                                }
                                Err(_) => {
                                    // Closed mid-exchange (max-conns
                                    // rejection racing our request, or
                                    // an idle reap): re-dial and retry.
                                    conn = None;
                                    out.reconnects += 1;
                                    std::thread::sleep(RETRY_BACKOFF);
                                }
                            }
                        }
                    }
                    out
                })
            })
            .collect();
        for handle in handles {
            let out = handle.join().expect("load worker");
            latencies.merge_from(&out.hist);
            rejected_503 += out.rejected_503;
            reconnects += out.reconnects;
            if let Some(e) = out.error {
                failures.push(e);
            }
        }
    });
    if !failures.is_empty() {
        return fail(&format!("load errors: {}", failures.join("; ")));
    }
    let after = match read_stats(base) {
        Ok(s) => s,
        Err(e) => return fail(&e),
    };

    let pct_us = |q: f64| -> u64 { latencies.quantile(q) };
    let ms = |us: u64| us as f64 / 1e3;
    let hits_delta = after.hits.saturating_sub(before.hits);
    let computed_delta = after.computed.saturating_sub(before.computed);
    if json_out {
        let obj = json::Json::obj(vec![
            ("path", json::Json::str(path)),
            ("n", json::Json::U64(latencies.count())),
            ("c", json::Json::U64(clients as u64)),
            ("cold_ms", json::Json::F64(cold_ms)),
            ("p50_us", json::Json::U64(pct_us(0.50))),
            ("p90_us", json::Json::U64(pct_us(0.90))),
            ("p99_us", json::Json::U64(pct_us(0.99))),
            ("max_us", json::Json::U64(pct_us(1.0))),
            (
                "mean_us",
                json::Json::U64(latencies.sum() / latencies.count().max(1)),
            ),
            ("rejected_503", json::Json::U64(rejected_503)),
            ("reconnects", json::Json::U64(reconnects)),
            ("server_threads", json::Json::U64(after.threads)),
            ("cache_hits_delta", json::Json::U64(hits_delta)),
            ("computed_cells_delta", json::Json::U64(computed_delta)),
        ]);
        say!("{}", obj.render());
    } else {
        say!(
            "load {path}: n={} c={clients}  cold={cold_ms:.1}ms  p50={:.2}ms p90={:.2}ms p99={:.2}ms max={:.2}ms",
            latencies.count(),
            ms(pct_us(0.50)),
            ms(pct_us(0.90)),
            ms(pct_us(0.99)),
            ms(pct_us(1.0)),
        );
        say!(
            "overload: {rejected_503} deliberate 503s (retried), {reconnects} reconnects; \
             server threads {}",
            after.threads
        );
        say!("stats delta: +{hits_delta} cache hits, +{computed_delta} computed cells");
    }
    if after.computed != before.computed {
        return fail("warm-cache load recomputed cells; expected pure cache hits");
    }
    if !json_out {
        say!("all responses 200 and byte-identical to the warm reference");
    }
    ExitCode::SUCCESS
}

/// `servecli BASE metrics`: scrape `/metrics`, validate the Prometheus
/// text exposition line-by-line, and fail if a required family is
/// missing.
fn cmd_metrics(base: &str, required: &[String]) -> ExitCode {
    if let Err(e) = wait_healthy(base) {
        return fail(&e);
    }
    let resp = match client::get(base, "/metrics") {
        Ok(resp) if resp.status == 200 => resp,
        Ok(resp) => return fail(&format!("/metrics returned {}", resp.status)),
        Err(e) => return fail(&format!("GET /metrics failed: {e}")),
    };
    let text = String::from_utf8_lossy(&resp.body).to_string();
    let mut families: Vec<String> = Vec::new();
    let mut samples = 0usize;
    for (i, line) in text.lines().enumerate() {
        if line.is_empty() {
            continue;
        }
        if let Some(rest) = line.strip_prefix("# TYPE ") {
            let mut parts = rest.split_whitespace();
            match (parts.next(), parts.next()) {
                (Some(name), Some("counter" | "gauge" | "histogram")) => {
                    families.push(name.to_string());
                }
                _ => return fail(&format!("bad TYPE line {}: {line}", i + 1)),
            }
            continue;
        }
        if line.starts_with('#') {
            continue;
        }
        // Sample line: `name{labels} value` — the value must parse.
        let value = line.rsplit(' ').next().unwrap_or("");
        if value.parse::<f64>().is_err() {
            return fail(&format!("unparseable sample on line {}: {line}", i + 1));
        }
        samples += 1;
    }
    let missing: Vec<&str> = required
        .iter()
        .map(String::as_str)
        .filter(|r| !families.iter().any(|f| f == r))
        .collect();
    if !missing.is_empty() {
        return fail(&format!(
            "missing required metric families: {}",
            missing.join(", ")
        ));
    }
    say!(
        "metrics: {} families, {samples} samples{}",
        families.len(),
        if required.is_empty() {
            String::new()
        } else {
            format!(", all {} required present", required.len())
        }
    );
    ExitCode::SUCCESS
}

/// `servecli BASE trace`: print the most recent spans from the
/// daemon's global rings.
fn cmd_trace(base: &str, n: usize) -> ExitCode {
    if let Err(e) = wait_healthy(base) {
        return fail(&e);
    }
    let resp = match client::get(base, &format!("/debug/trace?n={n}")) {
        Ok(resp) if resp.status == 200 => resp,
        Ok(resp) => return fail(&format!("/debug/trace returned {}", resp.status)),
        Err(e) => return fail(&format!("GET /debug/trace failed: {e}")),
    };
    let text = String::from_utf8_lossy(&resp.body).to_string();
    let v = match json::parse(&text) {
        Ok(v) => v,
        Err(e) => return fail(&format!("bad /debug/trace json: {e}")),
    };
    let Some(spans) = v.get("spans").and_then(json::Json::as_array) else {
        return fail("/debug/trace missing spans array");
    };
    for span in spans {
        let s = |k: &str| {
            span.get(k)
                .and_then(json::Json::as_str)
                .unwrap_or("?")
                .to_string()
        };
        let u = |k: &str| span.get(k).and_then(json::Json::as_u64).unwrap_or(0);
        let fields = span
            .get("fields")
            .map(|f| format!(" {}", f.render()))
            .unwrap_or_default();
        say!(
            "{:>12}us +{:>9}us  {}{fields} (id={} parent={} trace={})",
            u("start_us"),
            u("dur_us"),
            s("name"),
            u("id"),
            u("parent"),
            u("trace"),
        );
    }
    say!("trace: {} spans", spans.len());
    ExitCode::SUCCESS
}
