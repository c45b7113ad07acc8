//! Golden parity tests for the modulo scheduler.
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
//! Regenerate the snapshot (only when a change is *meant* to alter
//! schedules) with:
//!
//! ```text
//! GOLDEN_UPDATE=1 cargo test --test golden_parity
//! ```

use std::fmt::Write as _;

use distvliw::sched::Schedule;

mod common;
use common::{assert_golden, paper_grid, schedule_fingerprint};

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
