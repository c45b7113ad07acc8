//! Perf-trajectory gate: compares a fresh `bench` run against the
//! committed baseline and fails (exit 1) if any benchmark shared by both
//! files regressed beyond the allowed ratio.
//!
//! Usage:
//!
//! ```text
//! cargo run --release -p distvliw-bench --bin perfcheck -- \
//!     BENCH_sched.ci.json BENCH_sched.baseline.json [max-ratio]
//! ```
//!
//! `max-ratio` defaults to 1.3 (a >1.3× median slowdown fails, the
//! threshold named in ROADMAP.md). Benchmark ids present in only one
//! file are reported but never fail the check, so adding a benchmark
//! does not require re-recording the baseline in the same change.
//! Improvements are reported too; they always pass.
//!
//! Ids under the `ejections/` prefix are not timings at all: they carry
//! the ejection-scheduler's raw eviction counts (see
//! docs/scheduling.md). Their deltas are *reported* so the trajectory
//! is visible in CI logs, but they never fail the gate — an ejection
//! count moving means the scheduler worked differently, which the
//! golden schedule snapshots already adjudicate.
//!
//! Besides the cross-run ratio, perfcheck enforces one *same-run*
//! invariant: for every `<prefix>/factored` id whose sibling
//! `<prefix>/naive` appears in the CURRENT file, the naive/factored
//! median speedup must reach [`MIN_PAIR_SPEEDUP`]. Both legs come from
//! one bench process seconds apart, so the gate is immune to the
//! machine drift that makes absolute medians on shared runners swing by
//! 1.5× between runs. The threshold is set from measurement, not
//! aspiration: the factored sweep's structural work reduction on the
//! default grid is 72 compiled schedule units instead of 180 and 108
//! simulated units instead of 180 (hybrid rows are derived, the
//! bus-count axis reuses schedules), which measures 2.0–2.1× serial on
//! a single core; 1.5 leaves drift margin below that. On multi-core
//! hosts `core::par` fans the independent cells out and the end-to-end
//! speedup grows with the worker count — the gate intentionally
//! encodes only the serial, structural floor.

use std::process::ExitCode;

use distvliw_bench::{results_from_json, BenchResult};

/// Default failure threshold: current/baseline median ratio above this
/// fails the gate.
const DEFAULT_MAX_RATIO: f64 = 1.3;

/// Minimum same-run `<prefix>/naive` over `<prefix>/factored` median
/// speedup (see the module docs for how this floor was measured).
const MIN_PAIR_SPEEDUP: f64 = 1.5;

fn load(path: &str) -> Result<Vec<BenchResult>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    results_from_json(&text).map_err(|e| format!("cannot parse {path}: {e}"))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (current_path, baseline_path) = match &args[..] {
        [c, b] | [c, b, _] => (c.as_str(), b.as_str()),
        _ => {
            eprintln!("usage: perfcheck CURRENT.json BASELINE.json [max-ratio]");
            return ExitCode::FAILURE;
        }
    };
    let max_ratio = match args.get(2) {
        None => DEFAULT_MAX_RATIO,
        Some(raw) => match raw.parse::<f64>() {
            Ok(r) if r > 0.0 => r,
            _ => {
                eprintln!("max-ratio must be a positive number, got `{raw}`");
                return ExitCode::FAILURE;
            }
        },
    };

    let (current, baseline) = match (load(current_path), load(baseline_path)) {
        (Ok(c), Ok(b)) => (c, b),
        (c, b) => {
            for err in [c.err(), b.err()].into_iter().flatten() {
                eprintln!("{err}");
            }
            return ExitCode::FAILURE;
        }
    };

    let mut failed = false;
    let mut compared = 0usize;
    for cur in &current {
        let Some(base) = baseline.iter().find(|b| b.id == cur.id) else {
            println!("{:<32} (new: no baseline entry, skipped)", cur.id);
            continue;
        };
        if cur.id.starts_with("ejections/") {
            // Count rows, not timings: report the delta, never fail.
            let delta = cur.median_ns - base.median_ns;
            println!(
                "{:<32} {:>10.0} evictions vs {:>8.0} baseline  delta {delta:>+6.0}  (report-only)",
                cur.id, cur.median_ns, base.median_ns,
            );
            continue;
        }
        compared += 1;
        let ratio = cur.median_ns / base.median_ns;
        let verdict = if ratio > max_ratio {
            failed = true;
            "FAIL"
        } else {
            "ok"
        };
        println!(
            "{:<32} {:>10.3} ms vs {:>10.3} ms  ratio {ratio:>5.2}  {verdict}",
            cur.id,
            cur.median_ns / 1e6,
            base.median_ns / 1e6,
        );
    }
    for base in &baseline {
        if !current.iter().any(|c| c.id == base.id) {
            println!("{:<32} (missing from current run)", base.id);
        }
    }

    // Same-run speedup pairs: `<prefix>/factored` must beat its
    // `<prefix>/naive` sibling from the same bench process by
    // MIN_PAIR_SPEEDUP. Both medians come out of the CURRENT file only,
    // so this gate cannot be masked (or spuriously tripped) by machine
    // drift against an old baseline.
    for fac in &current {
        let Some(prefix) = fac.id.strip_suffix("/factored") else {
            continue;
        };
        let naive_id = format!("{prefix}/naive");
        let Some(naive) = current.iter().find(|c| c.id == naive_id) else {
            continue;
        };
        compared += 1;
        let speedup = naive.median_ns / fac.median_ns;
        let verdict = if speedup < MIN_PAIR_SPEEDUP {
            failed = true;
            "FAIL"
        } else {
            "ok"
        };
        println!(
            "{prefix:<32} same-run speedup {speedup:>5.2}x (naive {:.3} ms / factored {:.3} ms, floor {MIN_PAIR_SPEEDUP}x)  {verdict}",
            naive.median_ns / 1e6,
            fac.median_ns / 1e6,
        );
    }

    if compared == 0 {
        eprintln!("no benchmark ids in common between {current_path} and {baseline_path}");
        return ExitCode::FAILURE;
    }
    if failed {
        eprintln!(
            "perf regression: some medians exceed {max_ratio}x of baseline \
             or a same-run pair fell below {MIN_PAIR_SPEEDUP}x"
        );
        return ExitCode::FAILURE;
    }
    println!("perf check passed ({compared} checks within thresholds)");
    ExitCode::SUCCESS
}
