//! The paper-reproduction driver behind the `repro` binary.
//!
//! [`report`] renders any named experiment to a string and
//! [`EXPERIMENTS`] enumerates the catalog the `repro` bin dispatches
//! over. Timing lives in the separate `perfbench` workspace.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::fmt::Write as _;

use distvliw_arch::{AttractionBufferConfig, BusConfig, MachineConfig};
use distvliw_core::experiments::{
    epicdec_ab_case_study, fig6, fig7, fig9, gsmdec_case_study, nobal, nobal_machines,
    per_suite_rows, run_per_suite, sweep, sweep_default_suites, table3, table4, table5, SweepSpec,
};
use distvliw_core::{
    derive_hybrid, report as render, Heuristic, Pipeline, PipelineError, PipelineOptions, Solution,
};
use distvliw_mediabench::figure_suites;

/// The paper's Table 2 machine.
#[must_use]
pub fn paper_machine() -> MachineConfig {
    MachineConfig::paper_baseline()
}

/// Every experiment name [`report`] understands, in the paper's order —
/// the catalog of `repro <experiment>`. `repro all` runs them in this
/// order, except the trailing `ablations`, which varies the machine and
/// the scheduler options instead of reproducing the paper's evaluation.
/// The figure and table entries and `sweep` additionally have a
/// matching serving-layer route (`loops`, `hybrid`, `imbalance` and
/// `ablations` are `repro`-only). Every report begins with its own
/// descriptive title line.
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
    "ablations",
];

/// Renders the named experiment against `machine`.
///
/// # Errors
///
/// Returns a human-readable message for unknown names or pipeline
/// failures.
pub fn report(name: &str, machine: &MachineConfig) -> Result<String, String> {
    let fail = |e: PipelineError| format!("{name} failed: {e}");
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
        "ablations" => ablations_report(machine).map_err(fail),
        other => Err(format!("unknown experiment `{other}`")),
    }
}

/// Both NOBAL machine variants, concatenated.
fn nobal_report() -> Result<String, PipelineError> {
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
fn loops_report(machine: &MachineConfig) -> Result<String, PipelineError> {
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

/// Per-suite cells of `repro hybrid` and `repro imbalance`: MDC and DDGT
/// under PrefClus.
const MDC_DDGT_CELLS: [(Solution, Heuristic); 2] = [
    (Solution::Mdc, Heuristic::PrefClus),
    (Solution::Ddgt, Heuristic::PrefClus),
];

/// The per-loop hybrid of paper Section 6 against pure MDC and DDGT,
/// derived per loop from the [`MDC_DDGT_CELLS`] runs.
fn hybrid_report(machine: &MachineConfig) -> Result<String, PipelineError> {
    let rows = run_per_suite(
        machine,
        &figure_suites(),
        &MDC_DDGT_CELLS,
        |cells, stats| {
            per_suite_rows(cells, stats, MDC_DDGT_CELLS.len(), |benchmark, s| {
                let hybrid = derive_hybrid(s[0], s[1]).total_cycles();
                (benchmark, s[0].total_cycles(), s[1].total_cycles(), hybrid)
            })
        },
    )?;
    let mut out = String::new();
    let _ = writeln!(out, "Hybrid solution (per-loop best of MDC/DDGT, PrefClus)");
    let _ = writeln!(
        out,
        "{:<10} | {:>10} {:>10} {:>10} | {:>10}",
        "benchmark", "MDC", "DDGT", "Hybrid", "gain"
    );
    for (benchmark, mdc, ddgt, hybrid) in rows {
        let gain = mdc.min(ddgt) as f64 / hybrid.max(1) as f64 - 1.0;
        let _ = writeln!(
            out,
            "{:<10} | {:>10} {:>10} {:>10} | {:>9.1}%",
            benchmark,
            mdc,
            ddgt,
            hybrid,
            gain * 100.0
        );
    }
    Ok(out)
}

/// Per-cluster access shares, violations and grant pressure of the
/// [`MDC_DDGT_CELLS`] runs — the imbalance surface the ROADMAP's
/// workload-breadth item asks for.
fn imbalance_report(machine: &MachineConfig) -> Result<String, PipelineError> {
    let entries = run_per_suite(
        machine,
        &figure_suites(),
        &MDC_DDGT_CELLS,
        |cells, stats| {
            cells
                .iter()
                .zip(stats)
                .map(|(cell, s)| {
                    let label = format!("{} {}(PrefClus)", cell.suite.name, cell.solution);
                    (label, s.cluster.clone())
                })
                .collect::<Vec<_>>()
        },
    )?;
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
fn sweep_report(machine: &MachineConfig) -> Result<String, PipelineError> {
    let run = sweep(machine, &sweep_default_suites(), &SweepSpec::default())?;
    let mut out = render::render_sweep(
        &run.rows,
        "Sensitivity sweep: cluster count × memory buses (PrefClus; gsmdec + recorded traces)",
    );
    out.push_str(&render::render_sweep_reuse(&run.reuse));
    Ok(out)
}

/// Three ablation studies the paper calls out, concatenated:
///
/// 1. **32 register buses** (paper Section 4.2: "the benchmarks were
///    simulated using an upper bound of 32 register-to-register buses and
///    compute time was not reduced much") — at 4 buses the DDGT
///    bottleneck is the extra stores and edges, not communications.
/// 2. **Attraction Buffer capacity** on the epicdec chain loop (Section
///    5.4's mechanism: MDC overflows one buffer, DDGT uses all four).
/// 3. **Cache-sensitive latency assignment on/off** — the scheduler's
///    compute/stall trade-off (paper Section 2.2, reference 21).
fn ablations_report(machine: &MachineConfig) -> Result<String, PipelineError> {
    let mut out = String::new();

    let _ = writeln!(
        out,
        "== Ablation 1: register-bus upper bound (DDGT, PrefClus) =="
    );
    let _ = writeln!(
        out,
        "{:<10} | {:>14} {:>14} | {:>9}",
        "benchmark", "compute @4bus", "compute @32bus", "reduction"
    );
    let four = Pipeline::new(machine.clone());
    let many = Pipeline::new(machine.clone().with_reg_buses(BusConfig {
        count: 32,
        latency: 2,
    }));
    for name in ["epicdec", "pgpdec", "pgpenc", "rasta"] {
        let suite = distvliw_mediabench::suite(name).expect("bundled benchmark");
        let a = four.run_suite(&suite, Solution::Ddgt, Heuristic::PrefClus)?;
        let b = many.run_suite(&suite, Solution::Ddgt, Heuristic::PrefClus)?;
        let reduction = 1.0 - b.total.compute_cycles as f64 / a.total.compute_cycles.max(1) as f64;
        let _ = writeln!(
            out,
            "{:<10} | {:>14} {:>14} | {:>8.1}%",
            name,
            a.total.compute_cycles,
            b.total.compute_cycles,
            reduction * 100.0
        );
    }

    let _ = writeln!(
        out,
        "\n== Ablation 2: Attraction Buffer capacity (epicdec chain loop) =="
    );
    let _ = writeln!(
        out,
        "{:<10} | {:>14} {:>14}",
        "entries", "MDC local-hit", "DDGT local-hit"
    );
    let suite = distvliw_mediabench::suite("epicdec").expect("bundled benchmark");
    let chained = &suite.kernels[0];
    for entries in [0usize, 4, 8, 16, 32, 64] {
        let mut ab_machine = machine.clone().with_interleave(suite.interleave_bytes);
        if entries > 0 {
            ab_machine =
                ab_machine.with_attraction_buffers(AttractionBufferConfig { entries, assoc: 2 });
        }
        let p = Pipeline::new(ab_machine);
        let mdc = p.run_kernel(chained, Solution::Mdc, Heuristic::PrefClus)?;
        let ddgt = p.run_kernel(chained, Solution::Ddgt, Heuristic::PrefClus)?;
        let _ = writeln!(
            out,
            "{:<10} | {:>13.1}% {:>13.1}%",
            entries,
            mdc.stats.local_hit_ratio() * 100.0,
            ddgt.stats.local_hit_ratio() * 100.0
        );
    }

    let _ = writeln!(
        out,
        "\n== Ablation 3: cache-sensitive latency assignment (MDC, PrefClus) =="
    );
    let _ = writeln!(
        out,
        "{:<10} | {:>10} {:>10} | {:>10} {:>10}",
        "benchmark", "compute+", "stall+", "compute-", "stall-"
    );
    let on = Pipeline::new(machine.clone());
    let off = Pipeline::new(machine.clone()).with_options(PipelineOptions {
        relax_latencies: false,
        ..PipelineOptions::default()
    });
    for name in ["gsmdec", "pgpdec", "rasta"] {
        let suite = distvliw_mediabench::suite(name).expect("bundled benchmark");
        let a = on.run_suite(&suite, Solution::Mdc, Heuristic::PrefClus)?;
        let b = off.run_suite(&suite, Solution::Mdc, Heuristic::PrefClus)?;
        let _ = writeln!(
            out,
            "{:<10} | {:>10} {:>10} | {:>10} {:>10}",
            name,
            a.total.compute_cycles,
            a.total.stall_cycles,
            b.total.compute_cycles,
            b.total.stall_cycles
        );
    }
    let _ = writeln!(
        out,
        "(+ = relaxation on: larger assumed latencies trade stall for compute)"
    );
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
}
