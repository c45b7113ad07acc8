//! Repository lint: static source-tree invariants that `rustc` cannot
//! express, wired into CI next to the schedule checker.
//!
//! Three scans, all std-only and offline:
//!
//! 1. **Unsafe scope** — `unsafe` code may appear only in
//!    `crates/serve/src/event.rs` (the `sys` module wrapping `poll(2)`);
//!    every other crate carries `#![forbid(unsafe_code)]`, and this scan
//!    catches the file that forgets the attribute before a stray
//!    `unsafe` block lands.
//! 2. **Metric catalog drift** — every metric family registered through
//!    the `distvliw-obs` registry (`.counter("…")` / `.gauge` /
//!    `.histogram` and their `_with` labeled variants) must appear in
//!    the `docs/observability.md` catalog table, and vice versa, so the
//!    documented catalog cannot drift from the code. Collector families
//!    rendered at scrape time (the `serve_cache_*` prose list) bypass
//!    the registry and are documented in prose, not the table.
//! 3. **Executor pin** — outside `crates/core/src/par.rs` and test
//!    code, `par::par_map` may be called only from the two cell
//!    executors, `experiments::run_direct` and `ServeEngine::run_cells`
//!    ([`EXECUTORS`]). A third fan-out is a layer re-implementing the
//!    executor, which the ROADMAP's one-executor aim rules out.
//!
//! Usage: `repolint [repo-root]` (default `.`). Exits nonzero listing
//! every finding.

use std::collections::BTreeSet;
use std::fs;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

/// The one file allowed to contain `unsafe` (the poll(2) syscall
/// wrapper).
const UNSAFE_ALLOWED: &str = "crates/serve/src/event.rs";

/// This scanner's own source: it necessarily contains the very tokens
/// and call patterns it searches for, so both scans skip it.
const SELF: &str = "crates/check/src/bin/repolint.rs";

/// The documented metric catalog.
const CATALOG: &str = "docs/observability.md";

/// The parallelism primitive's own module, exempt from the executor pin.
const PAR_MODULE: &str = "crates/core/src/par.rs";

/// The only `(file, fn)` pairs whose bodies may call `par_map`: the
/// direct and the served cell executor.
const EXECUTORS: [(&str, &str); 2] = [
    ("crates/core/src/experiments.rs", "run_direct"),
    ("crates/serve/src/engine.rs", "run_cells"),
];

fn main() -> ExitCode {
    let root = std::env::args().nth(1).unwrap_or_else(|| ".".to_string());
    let root = PathBuf::from(root);
    let mut findings: Vec<String> = Vec::new();

    let mut sources: Vec<PathBuf> = Vec::new();
    for top in ["crates", "src", "tests", "examples", "third_party"] {
        collect_rs(&root.join(top), &mut sources);
    }
    sources.sort();

    check_unsafe_scope(&root, &sources, &mut findings);
    check_metric_catalog(&root, &sources, &mut findings);
    check_executor_pin(&root, &sources, &mut findings);

    if findings.is_empty() {
        println!("repolint: clean ({} source files scanned)", sources.len());
        ExitCode::SUCCESS
    } else {
        eprintln!("repolint: {} findings", findings.len());
        for f in &findings {
            eprintln!("  {f}");
        }
        ExitCode::FAILURE
    }
}

/// Recursively collects `.rs` files, skipping build output.
fn collect_rs(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = fs::read_dir(dir) else {
        return;
    };
    for entry in entries.flatten() {
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if path.is_dir() {
            if name != "target" && !name.starts_with('.') {
                collect_rs(&path, out);
            }
        } else if name.ends_with(".rs") {
            out.push(path);
        }
    }
}

/// The non-test code lines of `content`, numbered from 1: comment and
/// blank lines are dropped, so is every `#[cfg(test)]` item (through the
/// line its braces close on, or its `;`), and the scan stops at the
/// inline test module (`#[cfg(test)]` on a `mod … {`), which ends a file
/// by convention. A test-only helper elsewhere hides nothing after it.
fn code_lines(content: &str) -> impl Iterator<Item = (usize, &str)> {
    let mut out = Vec::new();
    let mut lines = content.lines().enumerate();
    while let Some((i, line)) = lines.next() {
        let t = line.trim_start();
        if let Some(rest) = t.strip_prefix("#[cfg(test)]") {
            if skip_test_item(rest, &mut lines) {
                break;
            }
            continue;
        }
        if !(t.starts_with("//") || t.is_empty()) {
            out.push((i + 1, line));
        }
    }
    out.into_iter()
}

/// Consumes the item a `#[cfg(test)]` attribute applies to: `rest` (the
/// attribute line after the attribute), then as many `lines` as the item
/// spans. Returns true when the item is an inline module — the test
/// module, where the scan stops.
fn skip_test_item<'a>(rest: &'a str, lines: &mut impl Iterator<Item = (usize, &'a str)>) -> bool {
    let mut depth = 0i64;
    let mut opened = false;
    let mut started = false;
    let mut next = Some(rest);
    while let Some(text) = next.take().or_else(|| lines.next().map(|(_, l)| l)) {
        let code = text.trim();
        if code.is_empty() || code.starts_with("//") || code.starts_with("#[") {
            continue;
        }
        let is_mod = ["mod ", "pub mod ", "pub(crate) mod "]
            .iter()
            .any(|p| code.starts_with(p));
        if !started && is_mod && code.contains('{') {
            return true;
        }
        started = true;
        depth += code.matches('{').count() as i64 - code.matches('}').count() as i64;
        opened |= code.contains('{');
        if (opened && depth <= 0) || (!opened && code.ends_with(';')) {
            break;
        }
    }
    false
}

/// Scan 1: `unsafe` appears only in the allowed file.
fn check_unsafe_scope(root: &Path, sources: &[PathBuf], findings: &mut Vec<String>) {
    for path in sources {
        let rel = path.strip_prefix(root).unwrap_or(path);
        if rel == Path::new(UNSAFE_ALLOWED) || rel == Path::new(SELF) {
            continue;
        }
        let Ok(content) = fs::read_to_string(path) else {
            continue;
        };
        // Scan the whole file here — unsafe in test code is just as
        // out of scope as unsafe in shipped code.
        for (lineno, line) in content.lines().enumerate() {
            let t = line.trim_start();
            if t.starts_with("//") {
                continue;
            }
            // `unsafe_code` attribute mentions (forbid/deny) are the
            // policy itself, not a use of unsafe.
            let sanitized = line.replace("unsafe_code", "");
            if has_word(&sanitized, "unsafe") {
                findings.push(format!(
                    "unsafe outside {UNSAFE_ALLOWED}: {}:{}: {}",
                    rel.display(),
                    lineno + 1,
                    line.trim()
                ));
            }
        }
    }
}

/// Whether `word` occurs in `line` with no identifier character on
/// either side.
fn has_word(line: &str, word: &str) -> bool {
    let bytes = line.as_bytes();
    let mut from = 0;
    while let Some(pos) = line[from..].find(word) {
        let start = from + pos;
        let end = start + word.len();
        let before_ok = start == 0 || !is_ident(bytes[start - 1]);
        let after_ok = end == bytes.len() || !is_ident(bytes[end]);
        if before_ok && after_ok {
            return true;
        }
        from = end;
    }
    false
}

fn is_ident(b: u8) -> bool {
    b.is_ascii_alphanumeric() || b == b'_'
}

/// Scan 2: registry-registered metric families ↔ the catalog table.
fn check_metric_catalog(root: &Path, sources: &[PathBuf], findings: &mut Vec<String>) {
    let mut in_code: BTreeSet<String> = BTreeSet::new();
    for path in sources {
        let rel = path.strip_prefix(root).unwrap_or(path);
        // Registration calls in test files register throwaway
        // families; only shipped crate code feeds the catalog.
        let rel_str = rel.to_string_lossy();
        if rel == Path::new(SELF)
            || !rel_str.starts_with("crates/")
            || rel_str.contains("/tests/")
            || rel_str.contains("/examples/")
        {
            continue;
        }
        let Ok(content) = fs::read_to_string(path) else {
            continue;
        };
        in_code.extend(registered_families(&content));
    }

    let catalog_path = root.join(CATALOG);
    let Ok(doc) = fs::read_to_string(&catalog_path) else {
        findings.push(format!("metric catalog {CATALOG} is missing"));
        return;
    };
    let mut in_docs: BTreeSet<String> = BTreeSet::new();
    for line in doc.lines() {
        // Catalog table rows look like: | `family{label=…}` | kind | … |
        let Some(rest) = line.trim_start().strip_prefix("| `") else {
            continue;
        };
        let Some(name) = rest.split('`').next() else {
            continue;
        };
        let name = name.split('{').next().unwrap_or(name);
        if !name.is_empty() {
            in_docs.insert(name.to_string());
        }
    }

    for name in in_code.difference(&in_docs) {
        findings.push(format!(
            "metric family `{name}` is registered in code but missing from the {CATALOG} catalog"
        ));
    }
    for name in in_docs.difference(&in_code) {
        findings.push(format!(
            "metric family `{name}` is cataloged in {CATALOG} but never registered in code"
        ));
    }
}

/// Scan 3: `par_map` is called only inside the [`EXECUTORS`].
fn check_executor_pin(root: &Path, sources: &[PathBuf], findings: &mut Vec<String>) {
    for path in sources {
        let rel = path.strip_prefix(root).unwrap_or(path);
        let rel_str = rel.to_string_lossy();
        if rel == Path::new(SELF)
            || rel == Path::new(PAR_MODULE)
            || rel_str.starts_with("tests/")
            || rel_str.contains("/tests/")
        {
            continue;
        }
        let Ok(content) = fs::read_to_string(path) else {
            continue;
        };
        for (lineno, func) in fan_outs(&content) {
            if !EXECUTORS.contains(&(rel_str.as_ref(), func.unwrap_or(""))) {
                findings.push(format!(
                    "par_map outside the cell executors ({}): {}:{lineno} in fn {} — \
                     ROADMAP's one-executor aim: run cells through one of them",
                    EXECUTORS.map(|(_, f)| f).join(", "),
                    rel.display(),
                    func.unwrap_or("<none>"),
                ));
            }
        }
    }
}

/// Every non-test line of `content` that names `par_map`, with the
/// name of the innermost `fn` declared above it (closures do not count).
fn fan_outs(content: &str) -> Vec<(usize, Option<&str>)> {
    let mut func = None;
    let mut out = Vec::new();
    for (lineno, line) in code_lines(content) {
        let mut words = line
            .split(|c: char| !(c.is_ascii_alphanumeric() || c == '_'))
            .filter(|w| !w.is_empty());
        if let Some(name) = words.by_ref().find(|&w| w == "fn").and(words.next()) {
            func = Some(name);
        }
        if has_word(line, "par_map") {
            out.push((lineno, func));
        }
    }
    out
}

/// The metric families the non-test code of `content` registers
/// through the registry (`.counter("…")` and the other calls above).
fn registered_families(content: &str) -> Vec<String> {
    let stripped: String = code_lines(content)
        .map(|(_, l)| l)
        .collect::<Vec<_>>()
        .join("\n");
    let mut names = Vec::new();
    for call in [
        ".counter(",
        ".gauge(",
        ".histogram(",
        ".counter_with(",
        ".gauge_with(",
        ".histogram_with(",
    ] {
        let mut from = 0;
        while let Some(pos) = stripped[from..].find(call) {
            let after = from + pos + call.len();
            if let Some(name) = leading_string_literal(&stripped[after..]) {
                if name.contains('_') {
                    names.push(name);
                }
            }
            from = after;
        }
    }
    names
}

/// The string literal at the start of `s` (after optional whitespace,
/// including the newline of a wrapped call), if any.
fn leading_string_literal(s: &str) -> Option<String> {
    let t = s.trim_start();
    let rest = t.strip_prefix('"')?;
    rest.split('"').next().map(str::to_string)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fan_outs_name_their_enclosing_fn() {
        let src = "use crate::par;\n\
                   pub fn run_direct(cells: &[Cell]) {\n\
                   \x20   // par_map in a comment is not a call\n\
                   \x20   let runs = par::par_map(&units, |unit| unit);\n\
                   }\n\
                   fn other() { par::par_map_on(2, &x, f); }\n\
                   pub(crate) fn sneaky<T>() {\n\
                   \x20   par::par_map(&x, f)\n\
                   }\n\
                   #[cfg(test)]\n\
                   fn t() { par::par_map(&x, f); }\n";
        assert_eq!(
            fan_outs(src),
            vec![(4, Some("run_direct")), (8, Some("sneaky"))]
        );
    }

    #[test]
    fn a_test_only_item_hides_only_itself() {
        // A `#[cfg(test)]` helper ahead of a registration, then the test
        // module: only the shipped registrations count.
        let src = "impl Memo {\n\
                   \x20   #[cfg(test)]\n\
                   \x20   fn len(&self) -> usize {\n\
                   \x20       reg.counter(\"test_only_total\", \"h\");\n\
                   \x20       self.map.len()\n\
                   \x20   }\n\
                   }\n\
                   #[cfg(test)]\n\
                   use std::fmt::Write;\n\
                   fn metrics() {\n\
                   \x20   reg.counter(\"check_violations_total\", \"h\");\n\
                   }\n\
                   #[cfg(test)] fn t() { reg.gauge(\"inline_test_gauge\", \"h\"); }\n\
                   fn more() { reg.histogram(\"after_inline_us\", \"h\"); }\n\
                   #[cfg(test)]\n\
                   mod tests {\n\
                   \x20   fn f() { reg.counter(\"in_tests_total\", \"h\"); }\n\
                   }\n\
                   fn after_the_module() { reg.counter(\"past_tests_total\", \"h\"); }\n";
        assert_eq!(
            registered_families(src),
            ["check_violations_total", "after_inline_us"]
        );
        let lines: Vec<usize> = code_lines(src).map(|(n, _)| n).collect();
        assert_eq!(lines, [1, 7, 10, 11, 12, 14]);
    }
}
