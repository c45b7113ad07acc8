//! The two served workloads, each a closed loop driven from this
//! process against a real `Server` on loopback.
//!
//! * `cold_figures` — every pass boots a fresh engine (empty result
//!   cache, empty II seed store, `with_check(true)` as `serve --check`)
//!   and GETs the six figure routes in a fixed order on one connection.
//!   Almost all of the time is compile and simulate work, so it shows
//!   `sched`/`sim`/`check`/`coherence`/`ir` changes and is the
//!   no-change control for warm-path work.
//! * `matrix_churn` — one connection POSTs a seeded stream of small
//!   `/matrix` grids drawn from a pool three times the cache capacity,
//!   with a fresh `--state-dir`: the only workload with cache inserts,
//!   LRU evictions, persist appends and compaction, body parsing and
//!   II-seed reuse across sim-only machine variants. One connection
//!   keeps the hit/miss/eviction sequence a function of the seed.

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use distvliw_arch::MachineConfig;
use distvliw_core::experiments::{exec_amean, fig7};
use distvliw_serve::client::{self, Client, ClientResponse};
use distvliw_serve::engine::ServeEngine;
use distvliw_serve::json::{self, Json};
use distvliw_serve::Server;

use crate::stats::{self, Rng};
use crate::{Args, Report};

/// The six figure routes, in the cold pass's fixed order.
pub const ROUTES: [&str; 6] = ["/fig6", "/fig7", "/fig9", "/table4", "/nobal", "/sweep"];

/// Result-cache capacity of the figure engines: the six routes need
/// ~330 distinct cells, so the default 256 would evict during a warm
/// pass.
pub const FIGURE_CACHE: usize = 1024;

/// Engine boots that make the `setup_s` median.
const SETUP_BOOTS: usize = 25;

/// A server running on a background thread; dropping it posts
/// `/shutdown`, joins the loop and removes its state directory.
pub struct Booted {
    /// `host:port` of the listener.
    pub addr: String,
    /// The engine behind the listener.
    pub engine: Arc<ServeEngine>,
    /// Engine build plus bind until `/healthz` answers.
    pub setup: Duration,
    thread: Option<JoinHandle<std::io::Result<()>>>,
    state_dir: Option<PathBuf>,
}

impl Booted {
    /// Builds an engine with `build`, serves it on an ephemeral loopback
    /// port with the default connection-layer sizing, and waits for
    /// `/healthz`.
    ///
    /// # Panics
    ///
    /// Panics if the loopback bind or the health check fails.
    pub fn start(state_dir: Option<PathBuf>, build: impl FnOnce() -> ServeEngine) -> Booted {
        let start = Instant::now();
        let engine = build();
        let engine = match &state_dir {
            Some(dir) => engine.with_state_dir(dir).expect("open the state dir"),
            None => engine,
        };
        let server = Server::bind("127.0.0.1:0", engine).expect("bind loopback");
        let addr = server.local_addr().to_string();
        let engine = server.engine().clone();
        let thread = std::thread::spawn(move || server.run());
        let health = client::get(&addr, "/healthz").expect("health check");
        assert_eq!(health.status, 200, "/healthz answers 200");
        Booted {
            addr,
            engine,
            setup: start.elapsed(),
            thread: Some(thread),
            state_dir,
        }
    }

    /// The served `/stats` document.
    ///
    /// # Panics
    ///
    /// Panics if `/stats` does not answer valid JSON.
    #[must_use]
    pub fn stats(&self) -> Json {
        let resp = client::get(&self.addr, "/stats").expect("GET /stats");
        parse_json(&resp.body).expect("/stats answers JSON")
    }
}

impl Drop for Booted {
    fn drop(&mut self) {
        let _ = client::post(&self.addr, "/shutdown", "");
        if let Some(thread) = self.thread.take() {
            let _ = thread.join();
        }
        if let Some(dir) = &self.state_dir {
            let _ = std::fs::remove_dir_all(dir);
        }
    }
}

/// Parent of every state directory the benchmark creates: inside the
/// working directory, which is the only place the benchmark writes.
pub const SCRATCH_DIR: &str = ".perfbench_tmp";

/// A fresh, unique state directory under [`SCRATCH_DIR`].
#[must_use]
pub fn state_dir(tag: &str) -> PathBuf {
    use std::sync::atomic::{AtomicU64, Ordering};
    static NEXT: AtomicU64 = AtomicU64::new(0);
    PathBuf::from(SCRATCH_DIR).join(format!(
        "{tag}-{}-{}",
        std::process::id(),
        NEXT.fetch_add(1, Ordering::Relaxed)
    ))
}

/// The engine every figure workload serves: the paper machine and a
/// cache large enough for all six routes.
#[must_use]
pub fn figure_engine(check: bool) -> ServeEngine {
    ServeEngine::new(MachineConfig::paper_baseline(), FIGURE_CACHE).with_check(check)
}

/// A counter from a `/stats` document, summed over its label sets.
#[must_use]
pub fn counter(stats: &Json, name: &str) -> u64 {
    let Some(Json::Obj(pairs)) = stats.get("counters") else {
        return 0;
    };
    pairs
        .iter()
        .filter(|(k, _)| k == name || k.strip_prefix(name).is_some_and(|l| l.starts_with('{')))
        .filter_map(|(_, v)| v.as_u64())
        .sum()
}

/// A numeric field at `path` in a `/stats` document (0 when absent).
#[must_use]
pub fn field(stats: &Json, path: &[&str]) -> u64 {
    path.iter()
        .try_fold(stats, |v, key| v.get(key))
        .and_then(Json::as_u64)
        .unwrap_or(0)
}

/// A response body as JSON, `None` unless it is valid UTF-8 JSON.
#[must_use]
pub fn parse_json(body: &[u8]) -> Option<Json> {
    json::parse(std::str::from_utf8(body).ok()?).ok()
}

/// The Figure 7 AMEAN `(MDC/PrefClus, DDGT/PrefClus)` total computed
/// directly by `experiments::fig7` + `exec_amean` on the paper machine —
/// the oracle the served `/fig7` must match exactly.
///
/// # Panics
///
/// Panics if the direct pipeline fails.
fn direct_fig7_amean() -> (f64, f64) {
    let rows = fig7(&MachineConfig::paper_baseline()).expect("direct fig7");
    let mean = exec_amean(&rows);
    (mean.mdc_pref.total(), mean.ddgt_pref.total())
}

/// The same AMEAN folded from a served `/fig7` body, in `exec_amean`'s
/// order of operations so an exact comparison is meaningful.
fn served_fig7_amean(body: &Json) -> Option<(f64, f64)> {
    let rows = body.get("rows")?.as_array()?;
    let n = rows.len().max(1) as f64;
    let mut acc = [(0.0f64, 0.0f64); 2];
    for row in rows {
        for (slot, key) in acc.iter_mut().zip(["mdc_prefclus", "ddgt_prefclus"]) {
            let bar = row.get(key)?;
            slot.0 += bar.get("compute")?.as_f64()? / n;
            slot.1 += bar.get("stall")?.as_f64()? / n;
        }
    }
    Some((acc[0].0 + acc[0].1, acc[1].0 + acc[1].1))
}

/// Gates a served `/fig7` body on matching the `direct` AMEAN exactly,
/// returning the served AMEAN.
fn fig7_gate(report: &mut Report, body: &[u8], direct: (f64, f64)) -> Option<(f64, f64)> {
    let served = parse_json(body).as_ref().and_then(served_fig7_amean);
    match served {
        Some(served) => report.gate(served == direct, || {
            format!("served /fig7 AMEAN {served:?} != direct fig7 {direct:?}")
        }),
        None => report.fail("/fig7 body lacks the MDC/DDGT bars"),
    }
    served
}

/// Simulated coherence violations summed over the MDC, DDGT and Hybrid
/// rows of a served `/sweep` body.
fn sweep_violations(body: &Json) -> Option<u64> {
    body.get("rows")?
        .as_array()?
        .iter()
        .filter(|row| row.get("solution").and_then(Json::as_str) != Some("Free"))
        .map(|row| row.get("violations")?.as_u64())
        .sum()
}

/// Runs `args.workload` and reports the end-to-end metrics.
pub fn run(args: &Args) -> Report {
    let mut report = Report::default();
    // Set-up is sampled first, while every run's process is in the same
    // state, from boots of the engine the workload serves.
    let setup = match args.workload.as_str() {
        "matrix_churn" => {
            let pool = matrix_pool();
            setup_median(Some("setup"), || churn_engine(&pool))
        }
        _ => setup_median(None, || figure_engine(true)),
    };
    report.metric("setup_s", setup);
    match args.workload.as_str() {
        "cold_figures" => cold_figures(args, &mut report),
        "matrix_churn" => matrix_churn(args, &mut report),
        other => unreachable!("workload `{other}` is validated in main"),
    }
    report.note("peak_rss_mb", stats::peak_rss_mb(), "MiB");
    report.note(
        "error_rate",
        report.failed as f64 / report.attempted.max(1) as f64,
        "fraction",
    );
    report
}

/// Sends one request and checks it answered 200; `None` (counted as
/// failed) otherwise.
pub fn send(
    report: &mut Report,
    conn: &mut Client,
    route: &str,
    body: Option<&str>,
) -> Option<(ClientResponse, Duration)> {
    report.attempted += 1;
    let start = Instant::now();
    let resp = match body {
        Some(body) => conn.post(route, body),
        None => conn.get(route),
    };
    let elapsed = start.elapsed();
    match resp {
        Ok(resp) if resp.status == 200 => Some((resp, elapsed)),
        Ok(resp) => {
            report.failed += 1;
            report.fail(format!("{route} answered {}", resp.status));
            None
        }
        Err(e) => {
            report.failed += 1;
            report.fail(format!("{route}: {e}"));
            None
        }
    }
}

fn cold_figures(args: &Args, report: &mut Report) {
    let direct = direct_fig7_amean();
    let deadline = Instant::now() + Duration::from_secs(args.seconds);
    let mut passes = Vec::new();
    let mut reference: Option<Vec<Vec<u8>>> = None;
    let mut computed_per_pass = None;
    let mut amean = (0.0, 0.0);
    let mut coherence_violations = 0;
    let mut check_violations = 0;
    while report.correct() && (passes.len() < 3 || Instant::now() < deadline) {
        let server = Booted::start(None, || figure_engine(true));
        let before = server.stats();
        let mut conn = Client::connect(&server.addr).expect("connect");
        let start = Instant::now();
        let bodies: Option<Vec<Vec<u8>>> = ROUTES
            .iter()
            .map(|route| send(report, &mut conn, route, None).map(|(resp, _)| resp.body))
            .collect();
        let Some(bodies) = bodies else { break };
        passes.push(start.elapsed().as_secs_f64());
        let after = server.stats();
        drop(conn);
        drop(server);

        // Gates, outside the timed region.
        let computed = field(&after, &["computed_cells"]) - field(&before, &["computed_cells"]);
        let expected = *computed_per_pass.get_or_insert(computed);
        report.gate(computed == expected, || {
            format!("cold pass computed {computed} cells, the first pass {expected}")
        });
        let checked =
            counter(&after, "check_violations_total") - counter(&before, "check_violations_total");
        check_violations += checked;
        amean = fig7_gate(report, &bodies[1], direct).unwrap_or(amean);
        match parse_json(&bodies[5]).as_ref().and_then(sweep_violations) {
            Some(v) => coherence_violations += v,
            None => report.fail("/sweep body lacks solution/violations rows"),
        }
        match &reference {
            None => reference = Some(bodies),
            Some(first) => {
                for ((route, a), b) in ROUTES.iter().zip(first).zip(&bodies) {
                    if a != b {
                        report.failed += 1;
                        report.fail(format!("cold {route} body differs between passes"));
                    }
                }
            }
        }
    }
    report.gate(coherence_violations == 0, || {
        format!("{coherence_violations} simulated MDC/DDGT/Hybrid coherence violations")
    });
    report.gate(check_violations == 0, || {
        format!("{check_violations} static checker violations")
    });

    if passes.is_empty() {
        return;
    }
    let pass = stats::median(&passes);
    report.metric("latency_p50_ms", pass * 1e3);
    report.metric(
        "throughput_rps",
        (passes.len() * ROUTES.len()) as f64 / passes.iter().sum::<f64>(),
    );
    report.note("pass_s", pass, "s");
    report.note("pass_q1_s", stats::percentile(&passes, 0.25), "s");
    report.note("pass_q3_s", stats::percentile(&passes, 0.75), "s");
    report.note("passes", passes.len() as f64, "count");
    report.note(
        "cells_computed_per_pass",
        computed_per_pass.unwrap_or(0) as f64,
        "count",
    );
    report.note("norm_exec_time_mdc", amean.0, "ratio");
    report.note("norm_exec_time_ddgt", amean.1, "ratio");
    report.note("coherence_violations", coherence_violations as f64, "count");
    report.note("check_violations", check_violations as f64, "count");
}

/// Length of the windows the latency median and the throughput are
/// taken over: each is the median of its per-window values, so a burst
/// of interference from other processes on the host moves one window,
/// not the result.
const WINDOW_S: f64 = 1.0;

/// Reports latency and throughput from `(completion offset s, latency
/// ms)` samples over `wall`: per-window medians for the catalog, exact
/// percentiles over every sample for the tail.
fn latency_metrics(report: &mut Report, samples: &[(f64, f64)], wall: Duration) {
    let windows = ((wall.as_secs_f64() / WINDOW_S) as usize).max(1);
    let mut buckets = vec![Vec::new(); windows];
    for &(t, ms) in samples {
        if let Some(bucket) = buckets.get_mut((t / WINDOW_S) as usize) {
            bucket.push(ms);
        }
    }
    buckets.retain(|b| !b.is_empty());
    let all: Vec<f64> = samples.iter().map(|&(_, ms)| ms).collect();
    if buckets.is_empty() || all.is_empty() {
        report.fail("no successful request");
        return;
    }
    let p50s: Vec<f64> = buckets.iter().map(|b| stats::median(b)).collect();
    let rates: Vec<f64> = buckets.iter().map(|b| b.len() as f64 / WINDOW_S).collect();
    report.metric("latency_p50_ms", stats::median(&p50s));
    report.metric("throughput_rps", stats::median(&rates));
    report.note("latency_p99_ms", stats::percentile(&all, 0.99), "ms");
    report.note("latency_samples", all.len() as f64, "count");
    report.note(
        "samples_beyond_p99",
        stats::beyond(all.len(), 0.99) as f64,
        "count",
    );
}

/// Boots and shuts down `SETUP_BOOTS` engines, returning the median
/// set-up seconds.
fn setup_median(state: Option<&str>, build: impl Fn() -> ServeEngine) -> f64 {
    let samples: Vec<f64> = (0..SETUP_BOOTS)
        .map(|_| {
            Booted::start(state.map(state_dir), &build)
                .setup
                .as_secs_f64()
        })
        .collect();
    stats::median(&samples)
}

/// Suites the churn pool draws from: a spread of chained and chainless
/// synthetic benchmarks plus one recorded trace.
const CHURN_SUITES: [&str; 6] = ["gsmdec", "g721enc", "jpegenc", "pegwitdec", "rasta", "fir8"];

/// The churn pool of `/matrix` bodies: every suite × {4, 8} clusters ×
/// three memory-bus points (the bus count is a sim-only field, so those
/// variants share II seeds) × {MDC, DDGT}, each a two-cell grid over
/// both heuristics. Every cell belongs to exactly one body, so the
/// cache's eviction sequence depends only on the order of requests.
#[must_use]
pub fn matrix_pool() -> Vec<String> {
    let mut pool = Vec::new();
    for suite in CHURN_SUITES {
        for clusters in [4, 8] {
            for (count, latency) in [(4, 2), (2, 2), (4, 4)] {
                for solution in ["mdc", "ddgt"] {
                    pool.push(format!(
                        "{{\"suites\":[\"{suite}\"],\"solutions\":[\"{solution}\"],\
                         \"heuristics\":[\"prefclus\",\"mincoms\"],\"machine\":\
                         {{\"n_clusters\":{clusters},\"mem_buses\":{{\"count\":{count},\
                         \"latency\":{latency}}}}}}}"
                    ));
                }
            }
        }
    }
    pool
}

/// Cells each pool request computes.
const CELLS_PER_REQUEST: usize = 2;

/// Cache capacity of the churn engine: a third of the pool's cells.
#[must_use]
pub fn churn_capacity(pool: &[String]) -> usize {
    pool.len() * CELLS_PER_REQUEST / 3
}

/// The churn engine: paper machine, a cache a third of the pool.
#[must_use]
pub fn churn_engine(pool: &[String]) -> ServeEngine {
    ServeEngine::new(MachineConfig::paper_baseline(), churn_capacity(pool))
}

/// Checks one `/matrix` body: every cell ran, and no MDC/DDGT cell
/// violated coherence in simulation.
fn matrix_body_ok(resp: &ClientResponse) -> bool {
    parse_json(&resp.body)
        .and_then(|body| {
            let cells = body.get("cells")?.as_array()?;
            Some(
                cells.len() == CELLS_PER_REQUEST
                    && cells.iter().all(|c| {
                        c.get("ok").and_then(Json::as_bool) == Some(true)
                            && c.get("coherence_violations").and_then(Json::as_u64) == Some(0)
                    }),
            )
        })
        .unwrap_or(false)
}

/// Serves the untimed warm-up pass over the whole pool (seeded order),
/// returning each request's reference body, or `None` after a failure.
pub fn matrix_warmup(
    report: &mut Report,
    conn: &mut Client,
    pool: &[String],
    rng: &mut Rng,
) -> Option<Vec<Vec<u8>>> {
    let mut order: Vec<usize> = (0..pool.len()).collect();
    rng.shuffle(&mut order);
    let mut reference = vec![Vec::new(); pool.len()];
    for i in order {
        let (resp, _) = send(report, conn, "/matrix", Some(&pool[i]))?;
        if !matrix_body_ok(&resp) {
            report.failed += 1;
            report.fail(format!("/matrix cell failed or violated: {}", pool[i]));
            return None;
        }
        reference[i] = resp.body;
    }
    Some(reference)
}

/// Sends `pool[i]` and checks its body against the warm-up reference;
/// the latency in ms on success.
pub fn matrix_request(
    report: &mut Report,
    conn: &mut Client,
    pool: &[String],
    reference: &[Vec<u8>],
    i: usize,
) -> Option<f64> {
    let (resp, took) = send(report, conn, "/matrix", Some(&pool[i]))?;
    if resp.body == reference[i] {
        Some(stats::ms(took))
    } else {
        report.failed += 1;
        report.fail(format!("/matrix body changed on repeat: {}", pool[i]));
        None
    }
}

/// `/stats` deltas of the churn traffic, by name.
pub fn churn_deltas(before: &Json, after: &Json) -> BTreeMap<&'static str, f64> {
    let d = |path: &[&str]| (field(after, path) - field(before, path)) as f64;
    let hits = d(&["cache", "hits"]);
    let misses = d(&["cache", "misses"]);
    BTreeMap::from([
        ("serve.cache_hit_ratio", hits / (hits + misses).max(1.0)),
        ("serve.cells_computed", d(&["computed_cells"])),
        ("serve.evictions", d(&["cache", "evictions"])),
        ("serve.seeded_kernels", d(&["seeded_kernels"])),
        ("serve.persist_compactions", d(&["persist", "compactions"])),
        (
            "serve.rejected_503",
            (counter(after, "serve_rejected_total") - counter(before, "serve_rejected_total"))
                as f64,
        ),
    ])
}

fn matrix_churn(args: &Args, report: &mut Report) {
    let pool = matrix_pool();
    let server = Booted::start(Some(state_dir("churn")), || churn_engine(&pool));

    let mut rng = Rng::new(args.seed);
    let mut conn = Client::connect(&server.addr).expect("connect");
    let Some(reference) = matrix_warmup(report, &mut conn, &pool, &mut rng) else {
        return;
    };

    let before = server.stats();
    let start = Instant::now();
    let deadline = start + Duration::from_secs(args.seconds);
    let mut latencies = Vec::new();
    while Instant::now() < deadline {
        let i = rng.below(pool.len());
        match matrix_request(report, &mut conn, &pool, &reference, i) {
            Some(ms) => latencies.push((start.elapsed().as_secs_f64(), ms)),
            None => break,
        }
    }
    let wall = start.elapsed();
    let after = server.stats();
    latency_metrics(report, &latencies, wall);
    for (name, value) in churn_deltas(&before, &after) {
        report.note(
            name,
            value,
            if name.ends_with("ratio") {
                "ratio"
            } else {
                "count"
            },
        );
    }
    report.note("cache_capacity", churn_capacity(&pool) as f64, "cells");
    report.note("pool_requests", pool.len() as f64, "count");
}
