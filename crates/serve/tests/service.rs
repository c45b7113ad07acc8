//! End-to-end tests of the HTTP service: a real server on an ephemeral
//! loopback port, driven through the bundled client.
//!
//! The acceptance property of the serving layer is pinned here: warm
//! (cached) responses are **byte-identical** to cold ones, repeated
//! requests are served without recomputing any cell (verified through
//! `/stats`), every figure route is byte-identical to its direct
//! `experiments::*` function, and `/matrix` cells agree exactly with a
//! cold `Pipeline::run_suite` per cell on the same configurations.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::time::Duration;

use distvliw_arch::MachineConfig;
use distvliw_core::{Heuristic, Pipeline, Solution};
use distvliw_serve::client::{self, Client};
use distvliw_serve::engine::ServeEngine;
use distvliw_serve::event::EventConfig;
use distvliw_serve::json;
use distvliw_serve::Server;

/// Spawns a server on an ephemeral port; returns its base URL and the
/// event-loop thread (joined after `/shutdown`).
fn spawn_server() -> (String, std::thread::JoinHandle<()>) {
    spawn_server_with(EventConfig::default())
}

/// Spawns a server with explicit connection-layer sizing.
fn spawn_server_with(config: EventConfig) -> (String, std::thread::JoinHandle<()>) {
    let engine = ServeEngine::new(MachineConfig::paper_baseline(), 256);
    let server = Server::bind_with("127.0.0.1:0", engine, config).expect("bind ephemeral port");
    let base = format!("http://{}", server.local_addr());
    let handle = std::thread::spawn(move || server.run().expect("server run"));
    (base, handle)
}

fn shutdown(base: &str, handle: std::thread::JoinHandle<()>) {
    let resp = client::post(base, "/shutdown", "").expect("shutdown");
    assert_eq!(resp.status, 200);
    handle.join().expect("server thread");
}

fn stats_field(base: &str, path: &[&str]) -> u64 {
    let resp = client::get(base, "/stats").expect("stats");
    assert_eq!(resp.status, 200);
    let v = json::parse(std::str::from_utf8(&resp.body).unwrap()).expect("stats json");
    let mut cur = &v;
    for key in path {
        cur = cur.get(key).unwrap_or_else(|| panic!("missing {key}"));
    }
    cur.as_u64().expect("integer stat")
}

#[test]
fn health_stats_and_unknown_routes() {
    let (base, handle) = spawn_server();

    let resp = client::get(&base, "/healthz").unwrap();
    assert_eq!(resp.status, 200);
    assert!(resp.body.starts_with(b"{\"status\":\"ok\"}"));

    let resp = client::get(&base, "/nope").unwrap();
    assert_eq!(resp.status, 404);
    let resp = client::post(&base, "/fig6", "").unwrap();
    assert_eq!(resp.status, 405);
    let resp = client::post(&base, "/matrix", "{not json").unwrap();
    assert_eq!(resp.status, 400);
    let resp = client::post(&base, "/matrix", r#"{"suites":["wat"]}"#).unwrap();
    assert_eq!(resp.status, 400);
    let resp = client::post(
        &base,
        "/matrix",
        r#"{"suites":["gsmdec"],"machine":{"interleave_bytes":16}}"#,
    )
    .unwrap();
    assert_eq!(resp.status, 400, "invalid machine must be rejected");

    // Index lists the routes.
    let resp = client::get(&base, "/").unwrap();
    assert_eq!(resp.status, 200);
    assert!(String::from_utf8_lossy(&resp.body).contains("/matrix"));

    shutdown(&base, handle);
}

#[test]
fn hostile_matrix_bodies_are_400_and_the_daemon_keeps_serving() {
    let (base, handle) = spawn_server();
    let cold = client::get(&base, "/fig7").unwrap();
    assert_eq!(cold.status, 200);
    let computed = stats_field(&base, &["computed_cells"]);

    // 200 000 nested arrays: deeper than the parser's recursion cap.
    let resp = client::post(&base, "/matrix", &"[".repeat(200_000)).unwrap();
    assert_eq!(resp.status, 400);
    let body = String::from_utf8_lossy(&resp.body);
    assert!(body.contains("nesting deeper than 64 at byte 64"), "{body}");

    // A machine whose cache tag arrays alone would need 64 GiB.
    let resp = client::post(
        &base,
        "/matrix",
        r#"{"suites":["gsmdec"],"machine":{"n_clusters":8589934592,"interleave_bytes":1,
            "cache":{"block_bytes":8589934592,"total_bytes":8589934592,"assoc":1}}}"#,
    )
    .unwrap();
    assert_eq!(resp.status, 400);
    let body = String::from_utf8_lossy(&resp.body);
    assert!(body.contains("n_clusters must be at most 64"), "{body}");

    // The same server still answers, from cache, with the same bytes.
    let warm = client::get(&base, "/fig7").unwrap();
    assert_eq!(warm.status, 200);
    assert_eq!(warm.body, cold.body);
    assert_eq!(stats_field(&base, &["computed_cells"]), computed);
    shutdown(&base, handle);
}

#[test]
fn keep_alive_serves_sequential_requests() {
    let (base, handle) = spawn_server();
    let mut client = Client::connect(&base).unwrap();
    for _ in 0..3 {
        let resp = client.get("/healthz").unwrap();
        assert_eq!(resp.status, 200);
    }
    shutdown(&base, handle);
}

#[test]
fn matrix_is_cached_byte_identical_and_matches_run_suite() {
    let (base, handle) = spawn_server();
    let body =
        r#"{"suites":["gsmdec","jpegenc"],"solutions":["mdc","ddgt"],"heuristics":["prefclus"]}"#;

    let cold = client::post(&base, "/matrix", body).unwrap();
    assert_eq!(cold.status, 200);
    let computed_after_cold = stats_field(&base, &["computed_cells"]);
    assert_eq!(
        computed_after_cold, 4,
        "2 suites × 2 solutions × 1 heuristic"
    );

    // Warm repeat: byte-identical, all hits, no recompute.
    let hits_before = stats_field(&base, &["cache", "hits"]);
    let warm = client::post(&base, "/matrix", body).unwrap();
    assert_eq!(warm.status, 200);
    assert_eq!(
        warm.body, cold.body,
        "cached response must be byte-identical"
    );
    assert_eq!(
        stats_field(&base, &["computed_cells"]),
        computed_after_cold,
        "repeat must not recompute"
    );
    assert!(stats_field(&base, &["cache", "hits"]) >= hits_before + 4);

    // The served numbers equal a cold run_suite per cell, in the same
    // (suite, solution, heuristic) order.
    let mut direct = Vec::new();
    for name in ["gsmdec", "jpegenc"] {
        let suite = distvliw_mediabench::suite(name).unwrap();
        for solution in [Solution::Mdc, Solution::Ddgt] {
            let stats = Pipeline::new(MachineConfig::paper_baseline())
                .run_suite(&suite, solution, Heuristic::PrefClus)
                .expect("direct cell runs");
            direct.push((name, solution, stats));
        }
    }
    let served = json::parse(std::str::from_utf8(&warm.body).unwrap()).unwrap();
    let cells = served.get("cells").unwrap().as_array().unwrap();
    assert_eq!(cells.len(), direct.len());
    for (cell, (suite, solution, direct_stats)) in cells.iter().zip(&direct) {
        assert_eq!(cell.get("suite").unwrap().as_str().unwrap(), *suite);
        assert_eq!(
            cell.get("solution").unwrap().as_str().unwrap(),
            solution.to_string()
        );
        assert_eq!(cell.get("ok").unwrap().as_bool(), Some(true));
        assert_eq!(
            cell.get("total_cycles").unwrap().as_u64().unwrap(),
            direct_stats.total_cycles(),
            "{suite}/{solution}"
        );
        assert_eq!(
            cell.get("comm_ops").unwrap().as_u64().unwrap(),
            direct_stats.total.comm_ops
        );
        assert_eq!(
            cell.get("kernels").unwrap().as_array().unwrap().len(),
            direct_stats.kernels.len()
        );
    }
    shutdown(&base, handle);
}

#[test]
fn figure_endpoint_repeat_is_a_pure_cache_hit() {
    let (base, handle) = spawn_server();

    // Use a machine override via /matrix first to prove distinct keys
    // coexist, then the figure path. (Keeps this test to one server.)
    let cold = client::get(&base, "/table4").unwrap();
    assert_eq!(cold.status, 200);
    let computed = stats_field(&base, &["computed_cells"]);
    assert!(computed > 0);

    let warm = client::get(&base, "/table4").unwrap();
    assert_eq!(warm.status, 200);
    assert_eq!(warm.body, cold.body);
    assert_eq!(
        stats_field(&base, &["computed_cells"]),
        computed,
        "warm /table4 must be assembled purely from cache"
    );

    // /stats surfaces the per-cluster counters of everything computed.
    let resp = client::get(&base, "/stats").unwrap();
    let v = json::parse(std::str::from_utf8(&resp.body).unwrap()).unwrap();
    let cluster = v.get("cluster").unwrap();
    let accesses = cluster.get("accesses").unwrap().as_array().unwrap();
    assert_eq!(accesses.len(), 4, "four clusters on the paper machine");
    let total: u64 = accesses.iter().map(|a| a.as_u64().unwrap()).sum();
    assert!(total > 0, "computed cells accumulate cluster usage");
    assert!(cluster.get("imbalance").unwrap().as_f64().unwrap() >= 1.0);
    assert!(cluster.get("mem_bus_grants").unwrap().as_u64().unwrap() > 0);

    shutdown(&base, handle);
}

#[test]
fn matrix_interleave_override_changes_the_run() {
    let (base, handle) = spawn_server();
    let body = |interleave: &str| {
        format!(
            r#"{{"suites":["epicdec"],"solutions":["mdc"],"heuristics":["prefclus"]{interleave}}}"#
        )
    };
    let plain = client::post(&base, "/matrix", &body("")).unwrap();
    assert_eq!(plain.status, 200);
    let overridden = client::post(
        &base,
        "/matrix",
        &body(r#","machine":{"interleave_bytes":2}"#),
    )
    .unwrap();
    assert_eq!(overridden.status, 200);

    // The override must reach the pipeline, matching a direct run on a
    // re-interleaved suite (not merely perturb the cache key).
    let mut suite = distvliw_mediabench::suite("epicdec").unwrap();
    suite.interleave_bytes = 2;
    let direct = Pipeline::new(MachineConfig::paper_baseline())
        .run_suite(&suite, Solution::Mdc, Heuristic::PrefClus)
        .unwrap();
    let v = json::parse(std::str::from_utf8(&overridden.body).unwrap()).unwrap();
    let cell = &v.get("cells").unwrap().as_array().unwrap()[0];
    assert_eq!(
        cell.get("total_cycles").unwrap().as_u64().unwrap(),
        direct.total_cycles()
    );
    assert_ne!(
        overridden.body, plain.body,
        "a different interleave must change the results"
    );
    shutdown(&base, handle);
}

#[test]
fn warm_sweep_is_a_pure_cache_hit() {
    let (base, handle) = spawn_server();

    let cold = client::get(&base, "/sweep").unwrap();
    assert_eq!(cold.status, 200);
    let computed = stats_field(&base, &["computed_cells"]);
    assert!(computed > 0);

    // Warm repeat: byte-identical, assembled purely from cache hits.
    let hits_before = stats_field(&base, &["cache", "hits"]);
    let warm = client::get(&base, "/sweep").unwrap();
    assert_eq!(warm.status, 200);
    assert_eq!(warm.body, cold.body, "warm /sweep must be byte-identical");
    assert_eq!(
        stats_field(&base, &["computed_cells"]),
        computed,
        "warm /sweep must not recompute any cell"
    );
    assert_eq!(
        stats_field(&base, &["cache", "hits"]),
        hits_before + computed,
        "every cell of the warm sweep is a cache hit"
    );
    shutdown(&base, handle);
}

#[test]
fn every_figure_route_equals_its_direct_experiment() {
    use distvliw_core::experiments::{
        fig6, fig7, fig9, nobal, nobal_machines, sweep, sweep_default_suites, table3, table4,
        table5, SweepSpec, SWEEP_DEFAULT_SUITE_NAMES,
    };
    use distvliw_serve::endpoints::{
        exec_json, fig6_json, nobal_json, sweep_json, table3_json, table4_json, table5_json,
    };

    // The direct experiments run the same cell lists on a plain pipeline;
    // each served body must be the shared encoder applied to their rows.
    let paper = MachineConfig::paper_baseline();
    let spec = SweepSpec::default();
    let studies: Vec<_> = nobal_machines()
        .into_iter()
        .map(|(study, machine)| (study, nobal(&machine).unwrap()))
        .collect();
    let sweep_rows = sweep(&paper, &sweep_default_suites(), &spec).unwrap().rows;
    let direct = [
        ("/fig6", fig6_json(&fig6(&paper).unwrap())),
        ("/fig7", exec_json("fig7", &fig7(&paper).unwrap())),
        ("/fig9", exec_json("fig9", &fig9(&paper).unwrap())),
        ("/table3", table3_json(&table3())),
        ("/table4", table4_json(&table4(&paper).unwrap())),
        ("/table5", table5_json(&table5())),
        ("/nobal", nobal_json(&studies)),
        (
            "/sweep",
            sweep_json(spec.heuristic, &SWEEP_DEFAULT_SUITE_NAMES, &sweep_rows),
        ),
    ];

    let (base, handle) = spawn_server();
    let mut client = Client::connect(&base).unwrap();
    for (route, want) in direct {
        let resp = client.get(route).unwrap();
        assert_eq!(resp.status, 200, "{route}");
        assert!(
            resp.body == want.render().into_bytes(),
            "{route}: served body differs from the direct experiment's rows"
        );
    }
    shutdown(&base, handle);
}

#[test]
fn matrix_accepts_bundled_trace_suites() {
    let (base, handle) = spawn_server();
    let body =
        r#"{"suites":["fir8","ptrchase"],"solutions":["free","mdc"],"heuristics":["prefclus"]}"#;
    let resp = client::post(&base, "/matrix", body).unwrap();
    assert_eq!(resp.status, 200);
    let v = json::parse(std::str::from_utf8(&resp.body).unwrap()).unwrap();
    let cells = v.get("cells").unwrap().as_array().unwrap();
    assert_eq!(cells.len(), 4);
    for cell in cells {
        assert_eq!(cell.get("ok").unwrap().as_bool(), Some(true));
        assert!(cell.get("total_cycles").unwrap().as_u64().unwrap() > 0);
    }
    // Direct parity for one trace cell.
    let suite = distvliw_mediabench::trace_suites()
        .into_iter()
        .find(|s| s.name == "fir8")
        .unwrap();
    let direct = Pipeline::new(MachineConfig::paper_baseline())
        .run_suite(&suite, Solution::Free, Heuristic::PrefClus)
        .unwrap();
    assert_eq!(
        cells[0].get("total_cycles").unwrap().as_u64().unwrap(),
        direct.total_cycles()
    );
    shutdown(&base, handle);
}

/// Collects `(name, dur_us)` over a `?trace=1` span tree.
fn walk_spans(span: &json::Json, out: &mut Vec<(String, u64)>) {
    let name = span.get("name").unwrap().as_str().unwrap().to_string();
    let dur = span.get("dur_us").unwrap().as_u64().unwrap();
    out.push((name, dur));
    if let Some(children) = span.get("children").and_then(json::Json::as_array) {
        for child in children {
            walk_spans(child, out);
        }
    }
}

#[test]
fn trace_query_reports_phase_spans_and_cache_hits_skip_compute() {
    let (base, handle) = spawn_server();

    // Cold: the tree must show the compute phases under the request
    // root, and the wrapped response must equal the plain one.
    let cold = client::post(
        &base,
        "/matrix?trace=1",
        r#"{"suites":["gsmdec"],"solutions":["mdc"],"heuristics":["prefclus"]}"#,
    )
    .unwrap();
    assert_eq!(cold.status, 200);
    let v = json::parse(std::str::from_utf8(&cold.body).unwrap()).unwrap();
    assert!(v.get("dropped_spans").unwrap().as_u64().unwrap() == 0);
    let tree = v.get("trace").unwrap().as_array().unwrap();
    let mut spans = Vec::new();
    for root in tree {
        walk_spans(root, &mut spans);
    }
    let total = |name: &str| -> u64 {
        spans
            .iter()
            .filter(|(n, _)| n == name)
            .map(|(_, d)| *d)
            .sum()
    };
    let count = |name: &str| spans.iter().filter(|(n, _)| n == name).count();
    assert_eq!(count("request"), 1, "exactly one root request span");
    assert_eq!(count("parse"), 1);
    assert_eq!(count("queue_wait"), 1);
    assert!(count("cache_lookup") >= 1);
    assert!(count("compile") >= 1, "cold run must compile");
    assert!(count("sim") >= 1, "cold run must simulate");
    assert!(total("compile") > 0 && total("sim") > 0);

    // Warm repeat of the same body: pure cache hit — zero compile/sim
    // time, and the inner response byte-identical to the cold inner.
    let warm = client::post(
        &base,
        "/matrix?trace=1",
        r#"{"suites":["gsmdec"],"solutions":["mdc"],"heuristics":["prefclus"]}"#,
    )
    .unwrap();
    assert_eq!(warm.status, 200);
    let w = json::parse(std::str::from_utf8(&warm.body).unwrap()).unwrap();
    let tree = w.get("trace").unwrap().as_array().unwrap();
    let mut spans = Vec::new();
    for root in tree {
        walk_spans(root, &mut spans);
    }
    assert!(
        !spans.iter().any(|(n, _)| n == "compile" || n == "sim"),
        "cache hit must not compile or simulate, got {spans:?}"
    );
    assert!(
        spans
            .iter()
            .any(|(n, _)| n == "cache_lookup" || n == "flight_wait"),
        "cache hit must record its lookup"
    );
    assert_eq!(
        v.get("response").unwrap().render(),
        w.get("response").unwrap().render(),
        "traced warm response must wrap the identical inner body"
    );

    // Without ?trace=1 the body is NOT wrapped.
    let plain = client::post(
        &base,
        "/matrix",
        r#"{"suites":["gsmdec"],"solutions":["mdc"],"heuristics":["prefclus"]}"#,
    )
    .unwrap();
    let p = json::parse(std::str::from_utf8(&plain.body).unwrap()).unwrap();
    assert!(p.get("trace").is_none());
    assert!(p.get("cells").is_some());

    shutdown(&base, handle);
}

#[test]
fn metrics_exposition_has_families_from_every_layer() {
    let (base, handle) = spawn_server();

    // Drive one computing request so sched/sim counters exist.
    let resp = client::post(
        &base,
        "/matrix",
        r#"{"suites":["fir8"],"solutions":["mdc"],"heuristics":["prefclus"]}"#,
    )
    .unwrap();
    assert_eq!(resp.status, 200);

    let resp = client::get(&base, "/metrics").unwrap();
    assert_eq!(resp.status, 200);
    let text = std::str::from_utf8(&resp.body).unwrap();

    let mut families = Vec::new();
    for line in text.lines() {
        if let Some(rest) = line.strip_prefix("# TYPE ") {
            let mut parts = rest.split_whitespace();
            families.push(parts.next().unwrap().to_string());
            assert!(
                matches!(parts.next(), Some("counter" | "gauge" | "histogram")),
                "bad TYPE line: {line}"
            );
        } else if !line.starts_with('#') && !line.is_empty() {
            let value = line.rsplit(' ').next().unwrap();
            assert!(
                value.parse::<f64>().is_ok(),
                "unparseable sample line: {line}"
            );
        }
    }
    for required in [
        // serve layer
        "serve_http_requests_total",
        "serve_http_request_duration_us",
        "serve_cache_hits_total",
        "serve_cache_misses_total",
        "serve_cache_entries",
        "serve_cells_computed_total",
        "serve_uptime_seconds",
        // sched layer
        "sched_schedules_total",
        "sched_iis_tried_total",
        "sched_schedule_duration_us",
        // sim layer
        "sim_kernels_total",
        "sim_cycles_total",
        "sim_kernel_duration_us",
        // registered when the server starts, before any path records
        "sched_schedule_failures_total",
        "check_violations_total",
        "serve_connections_reaped_total",
        "serve_http_slow_requests_total",
        "serve_panics_total",
        "serve_queue_wait_us",
    ] {
        assert!(
            families.iter().any(|f| f == required),
            "missing family {required}; have {families:?}"
        );
    }
    assert!(families.len() >= 15, "want >=15 families, got {families:?}");

    // The snapshot is deterministic: two scrapes expose the same
    // families in the same order (sample values may advance).
    let again = client::get(&base, "/metrics").unwrap();
    let families_again: Vec<&str> = std::str::from_utf8(&again.body)
        .unwrap()
        .lines()
        .filter_map(|l| l.strip_prefix("# TYPE "))
        .filter_map(|r| r.split_whitespace().next())
        .collect();
    assert_eq!(families, families_again);

    // GET only.
    let resp = client::post(&base, "/metrics", "").unwrap();
    assert_eq!(resp.status, 405);

    shutdown(&base, handle);
}

#[test]
fn debug_trace_returns_recent_spans() {
    let (base, handle) = spawn_server();

    for _ in 0..3 {
        let resp = client::get(&base, "/healthz").unwrap();
        assert_eq!(resp.status, 200);
    }
    let resp = client::get(&base, "/debug/trace?n=8").unwrap();
    assert_eq!(resp.status, 200);
    let v = json::parse(std::str::from_utf8(&resp.body).unwrap()).unwrap();
    let spans = v.get("spans").unwrap().as_array().unwrap();
    assert!(!spans.is_empty() && spans.len() <= 8);
    assert_eq!(
        v.get("count").unwrap().as_u64().unwrap(),
        spans.len() as u64
    );
    for span in spans {
        assert!(span.get("id").unwrap().as_u64().unwrap() > 0);
        assert!(span.get("name").unwrap().as_str().is_some());
        assert!(span.get("start_us").unwrap().as_u64().is_some());
    }
    // The request spans recorded by the pings above are visible.
    let has_request = spans
        .iter()
        .any(|s| s.get("name").unwrap().as_str() == Some("request"));
    assert!(has_request, "global rings must hold the request spans");

    shutdown(&base, handle);
}

#[test]
fn stats_reports_uptime_build_and_counters() {
    let (base, handle) = spawn_server();

    let resp = client::get(&base, "/stats").unwrap();
    assert_eq!(resp.status, 200);
    let v = json::parse(std::str::from_utf8(&resp.body).unwrap()).unwrap();
    assert!(v.get("uptime_secs").unwrap().as_u64().is_some());
    let build = v.get("build").unwrap();
    assert_eq!(
        build.get("version").unwrap().as_str(),
        Some(env!("CARGO_PKG_VERSION"))
    );
    assert!(build.get("git").unwrap().as_str().is_some());
    // The registry snapshot is an object of integer counters.
    let counters = v.get("counters").unwrap();
    assert!(
        counters
            .get("serve_connections_total")
            .and_then(json::Json::as_u64)
            .is_some_and(|n| n >= 1),
        "this very request rode an accepted connection"
    );

    shutdown(&base, handle);
}

#[test]
fn connection_cap_answers_503_with_retry_after_and_bounded_threads() {
    let (base, handle) = spawn_server_with(EventConfig {
        max_conns: 4,
        queue_depth: 8,
    });

    // Fill the connection table with admitted keep-alive clients; a
    // completed request on each proves the server has accepted all
    // four (connect alone only reaches the backlog).
    let mut admitted: Vec<Client> = (0..4).map(|_| Client::connect(&base).unwrap()).collect();
    let reference = admitted[0].get("/table3").unwrap();
    assert_eq!(reference.status, 200);
    for conn in admitted.iter_mut().skip(1) {
        let resp = conn.get("/table3").unwrap();
        assert_eq!(resp.status, 200);
    }

    let threads_before = distvliw_obs::process_threads();

    // Every connection beyond the cap is answered an immediate 503
    // with retry-after and closed — without reading a request.
    let host = client::host_of(&base);
    for _ in 0..8 {
        let mut raw = TcpStream::connect(&host).unwrap();
        let mut bytes = Vec::new();
        raw.read_to_end(&mut bytes).unwrap();
        let text = String::from_utf8_lossy(&bytes);
        assert!(
            text.starts_with("HTTP/1.1 503 "),
            "overflow connection must be answered 503, got: {text}"
        );
        assert!(text.contains("retry-after: 1"), "{text}");
        assert!(text.contains("connection: close"), "{text}");
    }

    // The admitted connections are untouched by the overflow and keep
    // serving byte-identical responses.
    for conn in &mut admitted {
        let resp = conn.get("/table3").unwrap();
        assert_eq!(resp.status, 200);
        assert_eq!(resp.headers, reference.headers);
        assert_eq!(resp.body, reference.body);
    }

    // No thread-per-connection: 8 overflow + 4 admitted connections
    // must not have grown the process thread budget (loop, flusher and
    // pool are fixed at startup; a small tolerance absorbs unrelated churn
    // from tests running in parallel in this process).
    let threads_after = distvliw_obs::process_threads();
    assert!(
        threads_after <= threads_before + 4,
        "thread count grew with connections: {threads_before} -> {threads_after}"
    );

    // Free the table before /shutdown needs a fresh connection, and
    // give the loop a beat to observe the closes.
    drop(admitted);
    let mut ok = false;
    for _ in 0..100 {
        if let Ok(resp) = client::post(&base, "/shutdown", "") {
            if resp.status == 200 {
                ok = true;
                break;
            }
        }
        std::thread::sleep(Duration::from_millis(50));
    }
    assert!(ok, "shutdown must be admitted once the table drains");
    handle.join().expect("server thread");
}

#[test]
fn bare_crlf_stream_is_skipped_before_a_real_request() {
    let (base, handle) = spawn_server();
    let host = client::host_of(&base);

    // Stray blank lines between requests are skipped per RFC 7230
    // §3.5 — including a large run split across many reads (the event
    // loop drains them instead of buffering them for the whole
    // request window).
    let mut raw = TcpStream::connect(&host).unwrap();
    for _ in 0..16 {
        raw.write_all(&b"\r\n".repeat(2048)).unwrap();
        std::thread::sleep(Duration::from_millis(5));
    }
    raw.write_all(b"GET /healthz HTTP/1.0\r\n\r\n").unwrap();
    let mut bytes = Vec::new();
    raw.read_to_end(&mut bytes).unwrap();
    let text = String::from_utf8_lossy(&bytes);
    assert!(text.starts_with("HTTP/1.1 200 OK\r\n"), "{text}");

    shutdown(&base, handle);
}

#[test]
fn http_1_0_and_chunked_requests_are_answered_correctly_end_to_end() {
    let (base, handle) = spawn_server();
    let host = client::host_of(&base);

    // An HTTP/1.0 request without `Connection: keep-alive` is answered
    // and the connection closed (it used to hang until the idle reap).
    let mut raw = TcpStream::connect(&host).unwrap();
    raw.write_all(b"GET /healthz HTTP/1.0\r\n\r\n").unwrap();
    let mut bytes = Vec::new();
    raw.read_to_end(&mut bytes).unwrap();
    let text = String::from_utf8_lossy(&bytes);
    assert!(text.starts_with("HTTP/1.1 200 OK\r\n"), "{text}");
    assert!(text.contains("connection: close"), "{text}");

    // `Connection: keep-alive, close` must close per RFC 7230 §6.1.
    let mut raw = TcpStream::connect(&host).unwrap();
    raw.write_all(b"GET /healthz HTTP/1.1\r\nconnection: keep-alive, close\r\n\r\n")
        .unwrap();
    let mut bytes = Vec::new();
    raw.read_to_end(&mut bytes).unwrap();
    let text = String::from_utf8_lossy(&bytes);
    assert!(text.starts_with("HTTP/1.1 200 OK\r\n"), "{text}");
    assert!(text.contains("connection: close"), "{text}");

    // Chunked request bodies are rejected up front with 501.
    let mut raw = TcpStream::connect(&host).unwrap();
    raw.write_all(
        b"POST /matrix HTTP/1.1\r\ntransfer-encoding: chunked\r\n\r\n4\r\nwat!\r\n0\r\n\r\n",
    )
    .unwrap();
    let mut bytes = Vec::new();
    raw.read_to_end(&mut bytes).unwrap();
    let text = String::from_utf8_lossy(&bytes);
    assert!(text.starts_with("HTTP/1.1 501 "), "{text}");
    assert!(text.contains("connection: close"), "{text}");

    shutdown(&base, handle);
}

#[test]
fn servecli_exits_cleanly_when_stdout_closes_early() {
    let (base, handle) = spawn_server();
    // `servecli … | head -c1` with the reader already gone: every write
    // to stdout fails with EPIPE.
    let (reader, writer) = std::io::pipe().expect("pipe");
    drop(reader);
    let out = std::process::Command::new(env!("CARGO_BIN_EXE_servecli"))
        .args([base.as_str(), "get", "/table3"])
        .stdout(writer)
        .output()
        .expect("run servecli");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "{:?}: {stderr}", out.status);
    assert!(!stderr.contains("panicked"), "{stderr}");
    shutdown(&base, handle);
}
