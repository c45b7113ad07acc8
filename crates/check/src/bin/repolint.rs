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

/// Strips line comments and truncates at the first `#[cfg(test)]`, so
/// the scans see only non-test code lines.
fn code_lines(content: &str) -> impl Iterator<Item = (usize, &str)> {
    content
        .lines()
        .enumerate()
        .take_while(|(_, line)| !line.trim_start().starts_with("#[cfg(test)]"))
        .filter(|(_, line)| {
            let t = line.trim_start();
            !(t.starts_with("//") || t.is_empty())
        })
        .map(|(i, line)| (i + 1, line))
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
        let stripped: String = code_lines(&content)
            .map(|(_, l)| l)
            .collect::<Vec<_>>()
            .join("\n");
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
                        in_code.insert(name);
                    }
                }
                from = after;
            }
        }
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
}
