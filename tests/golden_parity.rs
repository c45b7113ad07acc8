//! Golden parity tests for the modulo scheduler and the simulator.
//!
//! The dense-map / transactional-MRT rewrite of the scheduling hot path
//! must be a pure performance change: for every bundled Mediabench
//! kernel, every coherence solution and both cluster-assignment
//! heuristics, the schedule the pipeline emits (II, span, per-op
//! cluster/cycle, assumed latency classes and copy operations) has to
//! stay **byte identical** to the snapshot in
//! `tests/golden/schedules.txt`. Every schedule is compiled through
//! `Pipeline` with the independent checker on, so each pinned
//! configuration is also verified legal.
//!
//! The same 312-configuration grid, compiled once per run of this
//! binary, pins the simulated statistics (compute/stall cycles, the
//! five access-class counters, coherence violations, dynamic copies and
//! memory-bus occupancy) in `tests/golden/sim_stats.txt`. That snapshot
//! was recorded against the pre-rewrite per-cycle scan engine of the
//! simulator, so a passing run proves the dense event-queue / batched
//! address-stream rewrite changed no statistic.
//!
//! The NOBAL machines of the paper's Section 4.2 study (two 4-cycle
//! register buses, or no memory buses) are pinned separately in
//! `tests/golden/nobal_schedules.txt`: every kernel of the figure
//! suites under the study's cells, with the search effort (IIs tried,
//! placement attempts, ejections) of a cold compile, so a change to the
//! scheduler's register-bus search cannot move what it finds or how
//! hard it looks.
//!
//! Regenerate the snapshots (only when a change is *meant* to alter
//! schedules) with:
//!
//! ```text
//! GOLDEN_UPDATE=1 cargo test --test golden_parity
//! ```

use std::fmt::Write as _;
use std::sync::OnceLock;

use distvliw::arch::MachineConfig;
use distvliw::core::experiments::{nobal_machines, NOBAL_CELLS};
use distvliw::sched::Schedule;

mod common;
use common::{
    assert_golden, compile_cells, compile_grid, render_stats, schedule_fingerprint, Config,
};

/// The 312-configuration 4-cluster grid both paper snapshots pin: every
/// bundled Mediabench kernel on the paper machine × both heuristics ×
/// {free, mdc, ddgt} × {relaxed, strict} latencies. Compiled on first
/// use and shared by the schedule and statistics tests.
fn paper_grid() -> &'static [Config] {
    static GRID: OnceLock<Vec<Config>> = OnceLock::new();
    GRID.get_or_init(|| {
        let machine = MachineConfig::paper_baseline();
        distvliw::mediabench::suites()
            .iter()
            .flat_map(|suite| compile_grid(&machine, suite, &[true, false]))
            .collect()
    })
}

/// Renders the placement of one schedule, for diagnostics on mismatch.
fn describe(s: &Schedule) -> String {
    let mut text = format!(
        "full placement:\nII={} span={} copies={}\n",
        s.ii,
        s.span,
        s.copies.len()
    );
    for (n, op) in &s.ops {
        let _ = writeln!(
            text,
            "  {n}: cluster {} cycle {} {:?}",
            op.cluster, op.start, op.assumed_class
        );
    }
    for c in &s.copies {
        let _ = writeln!(
            text,
            "  copy {}: {}->{} cycle {}",
            c.producer, c.from_cluster, c.to_cluster, c.start
        );
    }
    text
}

#[test]
fn schedules_match_golden_snapshot() {
    let grid = paper_grid();
    let lines: Vec<String> = grid
        .iter()
        .map(|c| {
            format!(
                "{} {} {} relax={} II={} span={} copies={} fp={:016x}",
                c.kernel,
                c.solution,
                c.heuristic,
                c.relax,
                c.schedule.ii,
                c.schedule.span,
                c.schedule.copies.len(),
                schedule_fingerprint(&c.schedule)
            )
        })
        .collect();
    assert_golden(
        "golden_parity",
        "tests/golden/schedules.txt",
        "schedule",
        &lines,
        |i| describe(&grid[i].schedule),
    );
}

#[test]
fn sim_stats_match_golden_snapshot() {
    let lines: Vec<String> = paper_grid()
        .iter()
        .map(|c| {
            format!(
                "{} {} {} relax={} {}",
                c.kernel,
                c.solution,
                c.heuristic,
                c.relax,
                render_stats(&c.stats)
            )
        })
        .collect();
    assert_golden(
        "golden_parity",
        "tests/golden/sim_stats.txt",
        "simulated statistics",
        &lines,
        |_| String::new(),
    );
}

#[test]
fn nobal_schedules_match_golden_snapshot() {
    let cells = NOBAL_CELLS.map(|(solution, heuristic)| (solution, heuristic, true));
    let mut lines = Vec::new();
    let mut schedules = Vec::new();
    for (study, machine) in nobal_machines() {
        for suite in distvliw::mediabench::figure_suites() {
            for c in compile_cells(&machine, &suite, &cells) {
                lines.push(format!(
                    "{study} {}/{} {} {} II={} span={} copies={} fp={:016x} iis={} attempts={} ejections={}",
                    suite.name,
                    c.kernel,
                    c.solution,
                    c.heuristic,
                    c.schedule.ii,
                    c.schedule.span,
                    c.schedule.copies.len(),
                    schedule_fingerprint(&c.schedule),
                    c.sched.iis_tried,
                    c.sched.placement_attempts,
                    c.sched.ejections,
                ));
                schedules.push(c.schedule);
            }
        }
    }
    assert_golden(
        "golden_parity",
        "tests/golden/nobal_schedules.txt",
        "NOBAL schedule or search effort",
        &lines,
        |i| describe(&schedules[i]),
    );
}
