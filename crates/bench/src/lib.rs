//! Shared helpers for the `repro`, `bench` and `perfcheck` binaries.
//!
//! [`report`] renders any named experiment to a string and
//! [`EXPERIMENTS`] enumerates the catalog the `repro` bin dispatches
//! over. [`BenchResult`] with [`results_json`] / [`results_from_json`]
//! is the `BENCH_sched*.json` format the `bench` bin writes and
//! `perfcheck` gates.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::fmt::Write as _;

use distvliw_arch::MachineConfig;
use distvliw_core::experiments::{
    epicdec_ab_case_study, fig6, fig7, fig9, gsmdec_case_study, nobal, nobal_machines, sweep,
    sweep_default_suites, table3, table4, table5, SweepSpec,
};
use distvliw_core::{report as render, Heuristic, Pipeline, Solution};

/// The paper's Table 2 machine.
#[must_use]
pub fn paper_machine() -> MachineConfig {
    MachineConfig::paper_baseline()
}

/// One measured benchmark row of a `BENCH_sched*.json` file.
#[derive(Debug, Clone)]
pub struct BenchResult {
    /// `group/function` identifier.
    pub id: String,
    /// Median nanoseconds per iteration (a raw count for `ejections/*`
    /// ids).
    pub median_ns: f64,
    /// Iterations per sample after calibration.
    pub iters_per_sample: u64,
    /// Number of timed samples.
    pub samples: usize,
}

/// Renders results as a JSON array, one object per line (hand-rolled; no
/// serde in the offline build).
#[must_use]
pub fn results_json(results: &[BenchResult]) -> String {
    let mut out = String::from("[\n");
    for (i, r) in results.iter().enumerate() {
        let comma = if i + 1 == results.len() { "" } else { "," };
        let _ = writeln!(
            out,
            "  {{\"id\": \"{}\", \"median_ns\": {:.1}, \"iters_per_sample\": {}, \"samples\": {}}}{comma}",
            r.id.replace('"', "\\\""),
            r.median_ns,
            r.iters_per_sample,
            r.samples
        );
    }
    out.push_str("]\n");
    out
}

/// Parses a JSON array written by [`results_json`] back into results.
/// The parser accepts exactly the writer's shape (one object per line,
/// the four known fields); anything else is an error.
///
/// # Errors
///
/// Returns a description of the first malformed entry.
pub fn results_from_json(text: &str) -> Result<Vec<BenchResult>, String> {
    fn field<'a>(obj: &'a str, key: &str) -> Result<&'a str, String> {
        let pat = format!("\"{key}\": ");
        let start = obj
            .find(&pat)
            .ok_or_else(|| format!("missing field `{key}` in `{obj}`"))?
            + pat.len();
        let rest = &obj[start..];
        let end = rest
            .find([',', '}'])
            .ok_or_else(|| format!("unterminated field `{key}` in `{obj}`"))?;
        Ok(rest[..end].trim())
    }

    let mut results = Vec::new();
    for line in text.lines() {
        let line = line.trim().trim_end_matches(',');
        if !line.starts_with('{') {
            continue; // array brackets / blank lines
        }
        // The id is parsed by scanning to its closing quote (not to the
        // next ','/'}' like the numeric fields), so ids containing
        // commas, braces or escaped quotes roundtrip.
        let id_pat = "\"id\": \"";
        let id_start = line
            .find(id_pat)
            .ok_or_else(|| format!("missing field `id` in `{line}`"))?
            + id_pat.len();
        let mut id = String::new();
        let mut chars = line[id_start..].chars();
        loop {
            match chars.next() {
                Some('\\') => match chars.next() {
                    Some(c) => id.push(c),
                    None => return Err(format!("unterminated id escape in `{line}`")),
                },
                Some('"') => break,
                Some(c) => id.push(c),
                None => return Err(format!("unterminated id in `{line}`")),
            }
        }
        let parse_num = |key: &str| -> Result<f64, String> {
            field(line, key)?
                .parse::<f64>()
                .map_err(|e| format!("bad `{key}` in `{line}`: {e}"))
        };
        results.push(BenchResult {
            id,
            median_ns: parse_num("median_ns")?,
            iters_per_sample: parse_num("iters_per_sample")? as u64,
            samples: parse_num("samples")? as usize,
        });
    }
    Ok(results)
}

/// Every experiment name [`report`] understands, in the paper's order —
/// the catalog of `repro <experiment>` (`repro all` runs them in this
/// order). The figure and table entries and `sweep` additionally have a
/// matching serving-layer route (`hybrid`, `loops` and `imbalance` are
/// `repro`-only). Every report begins with its own descriptive title
/// line.
pub const EXPERIMENTS: &[&str] = &[
    "table3",
    "fig6",
    "fig7",
    "table4",
    "table5",
    "fig9",
    "nobal",
    "loops",
    "hybrid",
    "imbalance",
    "sweep",
];

/// Renders the named experiment against `machine`.
///
/// # Errors
///
/// Returns a human-readable message for unknown names or pipeline
/// failures.
pub fn report(name: &str, machine: &MachineConfig) -> Result<String, String> {
    let fail = |e: distvliw_core::PipelineError| format!("{name} failed: {e}");
    match name {
        "table3" => Ok(render::render_table3(&table3())),
        "fig6" => fig6(machine).map(|r| render::render_fig6(&r)).map_err(fail),
        "fig7" => fig7(machine)
            .map(|r| render::render_exec(&r, "Figure 7: normalized execution time"))
            .map_err(fail),
        "fig9" => fig9(machine)
            .map(|r| {
                render::render_exec(
                    &r,
                    "Figure 9: normalized execution time with Attraction Buffers",
                )
            })
            .map_err(fail),
        "table4" => table4(machine)
            .map(|r| render::render_table4(&r))
            .map_err(fail),
        "table5" => Ok(render::render_table5(&table5())),
        "nobal" => nobal_report().map_err(fail),
        "loops" => loops_report(machine).map_err(fail),
        "hybrid" => hybrid_report(machine).map_err(fail),
        "imbalance" => imbalance_report(machine).map_err(fail),
        "sweep" => sweep_report(machine).map_err(fail),
        other => Err(format!("unknown experiment `{other}`")),
    }
}

/// Both NOBAL machine variants, concatenated.
fn nobal_report() -> Result<String, distvliw_core::PipelineError> {
    let mut out = String::new();
    let titles = [
        "NOBAL+MEM: more memory buses than register buses",
        "NOBAL+REG: more register buses than memory buses",
    ];
    for ((_, machine), title) in nobal_machines().iter().zip(titles) {
        let rows = nobal(machine)?;
        let _ = writeln!(out, "{}", render::render_nobal(&rows, title));
    }
    Ok(out)
}

/// The gsmdec and epicdec loop case studies, concatenated.
fn loops_report(machine: &MachineConfig) -> Result<String, distvliw_core::PipelineError> {
    let mut out = String::new();
    let _ = writeln!(out, "Loop case studies (paper Sections 4.2 and 5.4)");
    let _ = writeln!(
        out,
        "{}",
        render::render_case_study(&gsmdec_case_study(machine)?)
    );
    let _ = writeln!(
        out,
        "(with Attraction Buffers)\n{}",
        render::render_case_study(&epicdec_ab_case_study(machine)?)
    );
    Ok(out)
}

/// The per-loop hybrid of paper Section 6 against pure MDC and DDGT.
fn hybrid_report(machine: &MachineConfig) -> Result<String, distvliw_core::PipelineError> {
    let pipeline = Pipeline::new(machine.clone());
    let mut out = String::new();
    let _ = writeln!(out, "Hybrid solution (per-loop best of MDC/DDGT, PrefClus)");
    let _ = writeln!(
        out,
        "{:<10} | {:>10} {:>10} {:>10} | {:>10}",
        "benchmark", "MDC", "DDGT", "Hybrid", "gain"
    );
    for suite in distvliw_mediabench::figure_suites() {
        let run = |s| {
            pipeline
                .run_suite(&suite, s, Heuristic::PrefClus)
                .map(|r| r.total_cycles())
        };
        let mdc = run(Solution::Mdc)?;
        let ddgt = run(Solution::Ddgt)?;
        let hybrid = run(Solution::Hybrid)?;
        let best_pure = mdc.min(ddgt);
        let gain = best_pure as f64 / hybrid.max(1) as f64 - 1.0;
        let _ = writeln!(
            out,
            "{:<10} | {:>10} {:>10} {:>10} | {:>9.1}%",
            suite.name,
            mdc,
            ddgt,
            hybrid,
            gain * 100.0
        );
    }
    Ok(out)
}

/// Per-cluster access shares, violations and grant pressure under
/// MDC/DDGT (PrefClus) — the imbalance surface the ROADMAP's
/// workload-breadth item asks for.
fn imbalance_report(machine: &MachineConfig) -> Result<String, distvliw_core::PipelineError> {
    let pipeline = Pipeline::new(machine.clone());
    let mut entries = Vec::new();
    for suite in distvliw_mediabench::figure_suites() {
        for solution in [Solution::Mdc, Solution::Ddgt] {
            let stats = pipeline.run_suite(&suite, solution, Heuristic::PrefClus)?;
            entries.push((
                format!("{} {solution}(PrefClus)", suite.name),
                stats.cluster,
            ));
        }
    }
    Ok(render::render_cluster_imbalance(
        "Cluster imbalance: accesses by issuing cluster (PrefClus)",
        &entries,
    ))
}

/// The cluster-count × memory-bus sensitivity sweep over the default
/// workload mix (one synthetic benchmark plus the bundled recorded
/// traces), all four solutions per grid point. Runs the factored
/// schedule-once/sim-many path and appends its reuse counters, so a
/// sched-axis fallback to recompilation is visible in the report.
fn sweep_report(machine: &MachineConfig) -> Result<String, distvliw_core::PipelineError> {
    let run = sweep(machine, &sweep_default_suites(), &SweepSpec::default())?;
    let mut out = render::render_sweep(
        &run.rows,
        "Sensitivity sweep: cluster count × memory buses (PrefClus; gsmdec + recorded traces)",
    );
    out.push_str(&render::render_sweep_reuse(&run.reuse));
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unknown_experiment_is_an_error() {
        assert!(report("fig42", &paper_machine()).is_err());
    }

    #[test]
    fn compile_only_reports_render() {
        // table3/table5 run no pipeline, so they are cheap enough for a
        // unit test and exercise the dispatch path end to end.
        let t3 = report("table3", &paper_machine()).unwrap();
        assert!(t3.contains("Table 3"));
        let t5 = report("table5", &paper_machine()).unwrap();
        assert!(t5.contains("specialization"));
    }

    #[test]
    fn catalog_names_are_unique_and_dispatchable() {
        let mut seen = std::collections::HashSet::new();
        for &name in EXPERIMENTS {
            assert!(seen.insert(name), "duplicate experiment {name}");
            // Dispatch must at least recognize the name (cheap ones run
            // above; here only the unknown-name branch must not fire).
            if matches!(name, "table3" | "table5") {
                assert!(report(name, &paper_machine()).is_ok());
            }
        }
    }

    #[test]
    fn bench_json_roundtrips() {
        let r = vec![
            BenchResult {
                id: "sched/a".into(),
                median_ns: 12.5,
                iters_per_sample: 4,
                samples: 3,
            },
            BenchResult {
                id: "sim/\"q\"".into(),
                median_ns: 7.0,
                iters_per_sample: 1,
                samples: 10,
            },
            BenchResult {
                id: "pipeline/{gsmdec,epicdec}".into(),
                median_ns: 3.0,
                iters_per_sample: 1,
                samples: 2,
            },
        ];
        let text = results_json(&r);
        assert!(text.starts_with("[\n") && text.ends_with("]\n"));
        assert!(text.contains("  {\"id\": \"sched/a\", \"median_ns\": 12.5, \"iters_per_sample\": 4, \"samples\": 3},\n"));
        let parsed = results_from_json(&text).unwrap();
        assert_eq!(parsed.len(), 3);
        assert_eq!(parsed[0].id, "sched/a");
        assert!((parsed[0].median_ns - 12.5).abs() < 1e-9);
        assert_eq!(parsed[0].iters_per_sample, 4);
        assert_eq!(parsed[1].id, "sim/\"q\"");
        assert_eq!(parsed[1].samples, 10);
        assert_eq!(parsed[2].id, "pipeline/{gsmdec,epicdec}");
        assert_eq!(parsed[2].samples, 2);
    }

    #[test]
    fn malformed_bench_json_is_an_error() {
        assert!(results_from_json("[\n  {\"median_ns\": 1.0}\n]\n").is_err());
        assert!(results_from_json("[\n  {\"id\": \"a\", \"median_ns\": x}\n]\n").is_err());
        assert_eq!(results_from_json("[]\n").unwrap().len(), 0);
    }
}
