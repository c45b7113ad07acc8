//! Never-panic properties for every parser that sees untrusted bytes.
//!
//! A parser that panics on the event loop's thread takes the whole
//! daemon down, and one that panics inside a request job turns its
//! answer into a 500, so hostile input must come back as an error value,
//! never as a panic.
//! Each entry point is fed arbitrary bytes and byte-level mutations of a
//! valid input (overwrites, inserts, deletes, duplicated runs,
//! truncation, and digit runs swapped for extreme numbers):
//!
//! * `json::parse` — `Ok` or a `String` error; an `Ok` value renders.
//! * `http::parse_request`, on every prefix of the buffer as the event
//!   loop sees it grow — `Partial`, a `Complete` request spanning at most
//!   the buffer, or an `HttpError` with status 400 or 501. Ambiguous
//!   `Content-Length` framing is a 400.
//! * the trace parser — `Ok` or a typed `TraceError`; an `Ok` trace
//!   renders back to text that parses to the same trace.
//! * `machine_with_overrides` — `Ok` or a `String` error; an `Ok`
//!   machine passes `MachineConfig::validate` and builds the simulator's
//!   memory system.

use distvliw_arch::MachineConfig;
use distvliw_mediabench::trace;
use distvliw_serve::engine::machine_with_overrides;
use distvliw_serve::http::{parse_request, Parse};
use distvliw_serve::json::{self, Json};
use distvliw_sim::MemorySystem;
use proptest::collection::vec as pvec;
use proptest::prelude::*;

/// The `POST /matrix` example body from `docs/serving.md`.
const MATRIX_BODY: &str = r#"{"suites":["gsmdec","epicdec"],"solutions":["free","mdc","ddgt","hybrid"],
"heuristics":["prefclus","mincoms"],"machine":{"n_clusters":4,"interleave_bytes":2,
"cache":{"total_bytes":8192,"block_bytes":32,"assoc":2,"latency":1},
"reg_buses":{"count":4,"latency":2},"mem_buses":{"count":4,"latency":2},
"next_level":{"ports":4,"latency":10},"attraction_buffers":{"entries":16,"assoc":2}}}"#;

/// Pipelined requests as a client sends them.
const REQUESTS: &str = "GET /fig7?x=1 HTTP/1.1\r\nHost: a\r\n\r\n\
    POST /matrix HTTP/1.1\r\nContent-Length: 20\r\nConnection: close\r\n\r\n\
    {\"suites\":[\"gsmdec\"]}GET /healthz HTTP/1.0\r\n\r\n";

/// Bytes an edit inserts: mostly the syntax of the three formats, plus
/// everything at or above 0x80 (invalid or multi-byte UTF-8).
const SYNTAX: &[u8] = b"{}[]\":,-+.eE0123456789\\u \t\r\n#=/?&:xwalfnst";

/// Numbers a digit-run edit substitutes: boundaries of every integer
/// width the parsers convert to, and forms they must refuse.
const EXTREMES: &[&str] = &[
    "0",
    "1",
    "65",
    "4097",
    "1048577",
    "4294967296",
    "8589934592",
    "9223372036854775808",
    "18446744073709551615",
    "18446744073709551616",
    "99999999999999999999999",
    "-1",
    "1e999",
    "0x",
    "0xffffffffffffffff",
];

/// One byte-level edit `(kind, at, byte, len)`; `at` is taken modulo the
/// current length, so every edit lands somewhere.
type Edit = (u8, usize, u8, usize);

fn edits() -> impl Strategy<Value = Vec<Edit>> {
    pvec((0u8..6, any::<usize>(), any::<u8>(), 1usize..24), 1..6)
}

fn mutate(seed: &[u8], edits: &[Edit]) -> Vec<u8> {
    let mut out = seed.to_vec();
    for &(kind, at, byte, len) in edits {
        let at = at % (out.len() + 1);
        let end = (at + len).min(out.len());
        let byte = if byte < 0x80 {
            SYNTAX[usize::from(byte) % SYNTAX.len()]
        } else {
            byte
        };
        match kind {
            0 if at < out.len() => out[at] = byte,
            0 | 1 => out.insert(at, byte),
            2 => drop(out.drain(at..end)),
            3 => {
                let run = out[at..end].to_vec();
                out.splice(at..at, run);
            }
            4 => out.truncate(at),
            _ => {
                let start = (at..out.len())
                    .find(|&i| out[i].is_ascii_digit())
                    .unwrap_or(out.len());
                let stop = (start..out.len())
                    .find(|&i| !out[i].is_ascii_digit())
                    .unwrap_or(out.len());
                let number = EXTREMES[usize::from(byte) % EXTREMES.len()];
                out.splice(start..stop, number.bytes());
            }
        }
    }
    out
}

/// Parses `bytes` as JSON; an `Ok` value must render.
fn check_json(bytes: &[u8]) -> Option<Json> {
    let value = json::parse(&String::from_utf8_lossy(bytes)).ok()?;
    let _ = value.render();
    Some(value)
}

/// Applies `overrides` to the paper baseline; an accepted machine must
/// validate and must build the simulator's memory system.
fn check_machine(overrides: &Json) -> Result<(), TestCaseError> {
    if let Ok(machine) = machine_with_overrides(&MachineConfig::paper_baseline(), overrides) {
        prop_assert_eq!(machine.validate(), Ok(()));
        let _ = MemorySystem::new(&machine);
    }
    Ok(())
}

/// Parses every prefix of `bytes`, as the event loop does while a
/// request arrives.
fn check_http(bytes: &[u8]) -> Result<(), TestCaseError> {
    for end in 0..=bytes.len() {
        match parse_request(&bytes[..end]) {
            Ok(Parse::Partial) => {}
            Ok(Parse::Complete(_, used)) => prop_assert!(0 < used && used <= end),
            Err(e) => prop_assert!(matches!(e.status, 400 | 501), "{e}"),
        }
    }
    Ok(())
}

/// Parses `bytes` as a trace; an `Ok` trace must survive a render and
/// re-parse unchanged.
fn check_trace(bytes: &[u8]) -> Result<(), TestCaseError> {
    if let Ok(parsed) = trace::parse(&String::from_utf8_lossy(bytes)) {
        prop_assert_eq!(trace::parse(&parsed.render()), Ok(parsed));
    }
    Ok(())
}

/// A machine-override value: mostly a small power of two or zero (so
/// many machines still validate and reach the memory system), else an
/// integer from the bounds' neighbourhood or a value of the wrong type.
fn override_value() -> impl Strategy<Value = Json> {
    prop_oneof![
        (0u32..12).prop_map(|k| Json::U64(1 << k)),
        Just(Json::U64(0)),
        (0usize..EXTREMES.len()).prop_map(|i| json::parse(EXTREMES[i]).unwrap_or(Json::Null)),
        any::<u64>().prop_map(Json::U64),
        prop_oneof![
            Just(Json::Null),
            Just(Json::F64(-1.5)),
            Just(Json::str("4")),
            Just(Json::Arr(vec![Json::U64(4)])),
        ],
    ]
}

/// Every field `machine_with_overrides` reads, as `(object, field)`;
/// an empty object name is a top-level field.
const FIELDS: &[(&str, &str)] = &[
    ("", "n_clusters"),
    ("", "interleave_bytes"),
    ("cache", "total_bytes"),
    ("cache", "block_bytes"),
    ("cache", "assoc"),
    ("cache", "latency"),
    ("reg_buses", "count"),
    ("reg_buses", "latency"),
    ("mem_buses", "count"),
    ("mem_buses", "latency"),
    ("next_level", "ports"),
    ("next_level", "latency"),
    ("attraction_buffers", "entries"),
    ("attraction_buffers", "assoc"),
];

/// Builds an overrides object from `(field index, value)` pairs, grouping
/// nested fields under their object. `whole` first sets one object (or
/// top-level field) to a value of any type; nested fields then land in it
/// only if that value is an object.
fn overrides(fields: Vec<(usize, Json)>, whole: Option<(usize, Json)>) -> Json {
    let mut top: Vec<(String, Json)> = Vec::new();
    if let Some((i, value)) = whole {
        let (object, field) = FIELDS[i % FIELDS.len()];
        let key = if object.is_empty() { field } else { object };
        top.push((key.to_string(), value));
    }
    for (i, value) in fields {
        let (object, field) = FIELDS[i % FIELDS.len()];
        if object.is_empty() {
            top.push((field.to_string(), value));
            continue;
        }
        let slot = match top.iter().position(|(k, _)| k == object) {
            Some(at) => at,
            None => {
                top.push((object.to_string(), Json::Obj(Vec::new())));
                top.len() - 1
            }
        };
        if let Json::Obj(pairs) = &mut top[slot].1 {
            pairs.push((field.to_string(), value));
        }
    }
    Json::Obj(top)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn json_parse_never_panics_on_arbitrary_bytes(bytes in pvec(any::<u8>(), 0..256)) {
        let _ = check_json(&bytes);
    }

    #[test]
    fn mutated_matrix_bodies_parse_and_apply_without_panicking(edits in edits()) {
        if let Some(body) = check_json(&mutate(MATRIX_BODY.as_bytes(), &edits)) {
            check_machine(&body)?;
            if let Some(machine) = body.get("machine") {
                check_machine(machine)?;
            }
        }
    }

    #[test]
    fn machine_overrides_reject_hostile_values_without_panicking(
        fields in pvec((any::<usize>(), override_value()), 0..5),
        whole in (any::<bool>(), any::<usize>(), override_value()),
    ) {
        let (replace, i, value) = whole;
        check_machine(&overrides(fields, replace.then_some((i, value))))?;
    }

    #[test]
    fn http_parse_never_panics_on_arbitrary_bytes(bytes in pvec(any::<u8>(), 0..256)) {
        check_http(&bytes)?;
    }

    #[test]
    fn http_parse_never_panics_on_mutated_requests(edits in edits()) {
        check_http(&mutate(REQUESTS.as_bytes(), &edits))?;
    }

    #[test]
    fn trace_parse_never_panics_on_arbitrary_bytes(bytes in pvec(any::<u8>(), 0..256)) {
        check_trace(&bytes)?;
    }

    #[test]
    fn trace_parse_never_panics_on_mutated_traces(which in any::<usize>(), edits in edits()) {
        let traces = trace::bundled_traces();
        let text = traces[which % traces.len()].render();
        check_trace(&mutate(text.as_bytes(), &edits))?;
    }
}

/// Ambiguous `Content-Length` framing — a signed value, or repeats that
/// disagree — is the request-smuggling pattern: the parser answers 400
/// instead of choosing one reading.
#[test]
fn ambiguous_content_length_is_rejected() {
    for raw in [
        "POST /matrix HTTP/1.1\r\nContent-Length: +2\r\n\r\n{}",
        "POST /matrix HTTP/1.1\r\nContent-Length: 2\r\nContent-Length: 20\r\n\r\n{}",
    ] {
        let status = parse_request(raw.as_bytes()).err().map(|e| e.status);
        assert_eq!(status, Some(400), "{raw:?}");
    }
}
