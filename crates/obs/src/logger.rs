//! Structured JSON-lines logging.
//!
//! Two channels share one process-global sink installed by [`init`]:
//!
//! * **access** — one line per served request (method, path, status,
//!   cache outcome, bytes, per-phase micros), written to the target
//!   given to `serve --access-log <path|->`;
//! * **event** — operational warnings (accept-error backoff,
//!   connection reaps, slow requests), written to stderr once a sink is
//!   installed.
//!
//! Until [`init`] runs, both channels are no-ops, so library code can
//! log unconditionally and binaries opt in. Each line is one flat JSON
//! object whose strings go through [`escape_into`], the escaper the
//! serve-side JSON writer calls too; writes are line-atomic (single
//! `write_all` under a mutex).

use std::fmt::Write as _;
use std::io::Write;
use std::sync::{Mutex, OnceLock};

/// A field value on a log line.
#[derive(Debug, Clone)]
pub enum LogValue {
    /// An unsigned integer.
    U64(u64),
    /// A string.
    Str(String),
    /// A boolean.
    Bool(bool),
}

impl From<u64> for LogValue {
    fn from(v: u64) -> LogValue {
        LogValue::U64(v)
    }
}

impl From<&str> for LogValue {
    fn from(v: &str) -> LogValue {
        LogValue::Str(v.to_string())
    }
}

impl From<String> for LogValue {
    fn from(v: String) -> LogValue {
        LogValue::Str(v)
    }
}

impl From<bool> for LogValue {
    fn from(v: bool) -> LogValue {
        LogValue::Bool(v)
    }
}

/// Where a channel's lines go.
enum Target {
    Stdout,
    Stderr,
    File(Mutex<std::fs::File>),
}

impl Target {
    fn write_line(&self, line: &str) {
        let mut buf = Vec::with_capacity(line.len() + 1);
        buf.extend_from_slice(line.as_bytes());
        buf.push(b'\n');
        // Logging must never take the process down; drop lines on I/O
        // errors (e.g. a rotated-away file) instead.
        let _ = match self {
            Target::Stdout => std::io::stdout().lock().write_all(&buf),
            Target::Stderr => std::io::stderr().lock().write_all(&buf),
            Target::File(file) => file
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner)
                .write_all(&buf),
        };
    }
}

struct Sink {
    access: Option<Target>,
    events: bool,
}

static SINK: OnceLock<Sink> = OnceLock::new();

/// Installs the process logger: `access_log` of `Some("-")` sends
/// access lines to stdout, `Some(path)` appends to `path` (created if
/// missing), `None` disables the access channel. Events go to stderr
/// either way. Idempotent: only the first call takes effect; returns
/// whether this call installed the sink.
///
/// # Errors
/// Returns the I/O error if the access-log file cannot be opened.
pub fn init(access_log: Option<&str>) -> std::io::Result<bool> {
    let access = match access_log {
        None => None,
        Some("-") => Some(Target::Stdout),
        Some(path) => {
            let file = std::fs::OpenOptions::new()
                .create(true)
                .append(true)
                .open(path)?;
            Some(Target::File(Mutex::new(file)))
        }
    };
    let mut installed = false;
    let _ = SINK.get_or_init(|| {
        installed = true;
        Sink {
            access,
            events: true,
        }
    });
    Ok(installed)
}

/// Whether an access-log target is installed (lets callers skip
/// building fields for dropped lines).
#[must_use]
pub fn access_enabled() -> bool {
    SINK.get().is_some_and(|s| s.access.is_some())
}

/// Writes one access-log line with the given fields, in order.
/// No-op until [`init`] installs an access target.
pub fn access(fields: &[(&str, LogValue)]) {
    if let Some(target) = SINK.get().and_then(|s| s.access.as_ref()) {
        target.write_line(&render_line(fields));
    }
}

/// Writes one event line (stderr) at `level` (`"warn"`, `"info"`, …)
/// named `name`, with extra fields. No-op until [`init`].
pub fn event(level: &str, name: &str, fields: &[(&str, LogValue)]) {
    if SINK.get().is_some_and(|s| s.events) {
        let mut all = Vec::with_capacity(fields.len() + 2);
        all.push(("level", LogValue::Str(level.to_string())));
        all.push(("event", LogValue::Str(name.to_string())));
        all.extend_from_slice(fields);
        Target::Stderr.write_line(&render_line(&all));
    }
}

/// Renders `fields` as one flat JSON object (field order preserved).
#[must_use]
pub fn render_line(fields: &[(&str, LogValue)]) -> String {
    let mut out = String::with_capacity(64);
    out.push('{');
    for (i, (key, value)) in fields.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        escape_into(&mut out, key);
        out.push(':');
        match value {
            LogValue::U64(v) => out.push_str(&v.to_string()),
            LogValue::Bool(v) => out.push_str(if *v { "true" } else { "false" }),
            LogValue::Str(v) => escape_into(&mut out, v),
        }
    }
    out.push('}');
    out
}

/// Appends `s` to `out` as a quoted JSON string: `"` and `\` are
/// backslash-escaped, `\n`, `\r` and `\t` get their short escapes, and
/// every other control character becomes `\u00XX`. The one string
/// escaper for log lines and served JSON.
pub fn escape_into(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_flat_json_in_field_order() {
        let line = render_line(&[
            ("method", LogValue::Str("GET".into())),
            ("status", LogValue::U64(200)),
            ("hit", LogValue::Bool(true)),
        ]);
        assert_eq!(line, r#"{"method":"GET","status":200,"hit":true}"#);
    }

    #[test]
    fn escapes_control_and_quote_chars() {
        let line = render_line(&[("p", LogValue::Str("a\"b\\c\nd\u{1}".into()))]);
        assert_eq!(line, r#"{"p":"a\"b\\c\nd\u0001"}"#);
    }

    #[test]
    fn channels_are_noops_until_init() {
        // Must not panic or write anywhere observable.
        access(&[("k", LogValue::U64(1))]);
        event("warn", "nothing", &[]);
        assert!(!access_enabled());
    }
}
