//! The engine's cell fan-out on the resident compute pool, driven
//! in-process through `endpoints::handle`.
//!
//! One test per binary on purpose: it pins the fan-out width through
//! `DISTVLIW_THREADS`, reads the process-wide `par_pool_jobs_total`
//! counter and watches the process's thread ids, all of which another
//! test running beside it would disturb.

use distvliw_arch::MachineConfig;
use distvliw_serve::endpoints;
use distvliw_serve::engine::ServeEngine;
use distvliw_serve::http::Request;

fn request(method: &str, path: &str, body: &str) -> Request {
    Request {
        method: method.to_string(),
        path: path.to_string(),
        query: String::new(),
        minor: 1,
        headers: Vec::new(),
        body: body.as_bytes().to_vec(),
    }
}

fn matrix(engine: &ServeEngine, body: &str) -> Vec<u8> {
    let resp = endpoints::handle(engine, &request("POST", "/matrix", body));
    assert_eq!(resp.status, 200, "{body}");
    resp.body
}

fn fig7(engine: &ServeEngine) -> Vec<u8> {
    let resp = endpoints::handle(engine, &request("GET", "/fig7", ""));
    assert_eq!(resp.status, 200);
    resp.body
}

/// Items the resident pool's jobs have run so far, process-wide.
fn pool_jobs() -> u64 {
    distvliw_obs::global()
        .counter_snapshot()
        .into_iter()
        .find_map(|(name, value)| (name == "par_pool_jobs_total").then_some(value))
        .unwrap_or(0)
}

/// The id the next thread std creates will get, minus one: a probe
/// thread's own id. Ids are never reused, so two probes one apart mean
/// no thread was created between them.
fn probe_thread_id() -> u64 {
    let id = std::thread::spawn(|| std::thread::current().id())
        .join()
        .expect("probe thread");
    format!("{id:?}")
        .trim_start_matches("ThreadId(")
        .trim_end_matches(')')
        .parse()
        .expect("ThreadId(N)")
}

/// `(hits, misses, computed_cells)` after each request of a scripted
/// sequence, as the engine counted them before cache hits resolved
/// inline (spawned-thread fan-out, one lookup per cell).
const SCRIPT: [(&str, (u64, u64, u64)); 7] = [
    (r#"{"suites":["gsmdec"]}"#, (0, 2, 2)),
    (r#"{"suites":["gsmdec"]}"#, (2, 2, 2)),
    (r#"{"suites":["gsmdec","g721dec"]}"#, (4, 4, 4)),
    (
        r#"{"suites":["g721dec"],"solutions":["free","mdc"],"heuristics":["prefclus","mincoms"]}"#,
        (5, 7, 7),
    ),
    (
        r#"{"suites":["gsmdec"],"solutions":["mdc","ddgt"],"heuristics":["prefclus","mincoms"],"machine":{"interleave_bytes":2}}"#,
        (5, 11, 11),
    ),
    (
        r#"{"suites":["gsmdec"],"solutions":["mdc","ddgt"],"heuristics":["prefclus","mincoms"],"machine":{"interleave_bytes":2}}"#,
        (9, 11, 11),
    ),
    (
        r#"{"suites":["gsmdec","g721dec"],"machine":{"mem_buses":{"count":2}}}"#,
        (9, 15, 15),
    ),
];

#[test]
fn hits_resolve_inline_and_no_request_spawns_a_thread() {
    // Two wide whatever the host's CPU count, so the pool exists. Set
    // before the first fan-out; no other thread reads the environment.
    std::env::set_var("DISTVLIW_THREADS", "2");
    let engine = ServeEngine::new(MachineConfig::paper_baseline(), 256);

    let mut previous: Vec<u8> = Vec::new();
    for (i, (body, want)) in SCRIPT.iter().enumerate() {
        let served = matrix(&engine, body);
        let s = engine.stats();
        assert_eq!(
            (s.cache.hits, s.cache.misses, s.computed_cells),
            *want,
            "request {i}: {body}"
        );
        if i > 0 && SCRIPT[i - 1].0 == *body {
            assert_eq!(served, previous, "a repeat is byte-identical");
        }
        previous = served;
    }

    // The script's multi-miss requests started the pool. From here on
    // no request creates an OS thread, and hits never reach the pool.
    let cold = fig7(&engine);
    let threads_before = probe_thread_id();
    let jobs_before = pool_jobs();
    let computed = engine.stats().computed_cells;
    assert_eq!(fig7(&engine), cold, "warm /fig7 is byte-identical");
    matrix(&engine, SCRIPT[0].0);
    assert_eq!(engine.stats().computed_cells, computed);
    assert_eq!(
        pool_jobs(),
        jobs_before,
        "an all-hit request submits no pool job"
    );
    // A batch of fresh misses fans out over the resident threads.
    matrix(
        &engine,
        r#"{"suites":["gsmdec","g721dec","g721enc"],"machine":{"mem_buses":{"count":3}}}"#,
    );
    assert_eq!(engine.stats().computed_cells, computed + 6);
    assert_eq!(
        probe_thread_id(),
        threads_before + 1,
        "a request created an OS thread"
    );
}
