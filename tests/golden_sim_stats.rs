//! Golden parity tests for the cycle-level simulator.
//!
//! The dense event-queue / batched address-stream rewrite of the
//! simulator hot path must be a pure performance change: for every
//! bundled Mediabench kernel, every coherence solution, both
//! cluster-assignment heuristics and both latency-relaxation modes, the
//! simulated statistics (compute/stall cycles, the five access-class
//! counters, coherence violations, dynamic copies and memory-bus
//! occupancy) have to stay **byte identical** to the snapshot in
//! `tests/golden/sim_stats.txt`.
//!
//! The snapshot was recorded against the pre-rewrite per-cycle scan
//! engine (with only the additive bus-occupancy counter applied first,
//! since the seed engine did not report bus busy cycles), so a passing
//! run proves the rewrite changed no statistic. Regenerate it (only
//! when a change is *meant* to alter simulated behaviour) with:
//!
//! ```text
//! GOLDEN_UPDATE=1 cargo test --test golden_sim_stats
//! ```

mod common;
use common::{assert_golden, paper_grid, render_stats};

#[test]
fn sim_stats_match_golden_snapshot() {
    // The same checked 312-configuration grid as `golden_parity`,
    // replayed through `Pipeline::simulate_artifact`.
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
        "golden_sim_stats",
        "tests/golden/sim_stats.txt",
        "simulated statistics",
        &lines,
        |_| String::new(),
    );
}
