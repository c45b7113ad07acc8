//! Golden parity tests for the large-machine (8- and 16-cluster)
//! configurations the sensitivity sweep opened.
//!
//! The 4-cluster paper machine is pinned by `tests/golden_parity.rs`;
//! this file extends the net to the
//! scaled machines ([`sweep_machine`] at 8 and 16 clusters, paper
//! buses) over a mixed workload — two synthetic benchmarks plus the
//! bundled recorded traces — so future refactors cannot silently change
//! large-machine scheduling or simulated behaviour. Each snapshot line
//! pins the schedule (II, span, copy count, a fingerprint of every
//! placement) *and* the simulated statistics, and every schedule is
//! verified by the independent checker on its way through `Pipeline`.
//!
//! Regenerate (only when a change is *meant* to alter behaviour) with:
//!
//! ```text
//! GOLDEN_UPDATE=1 cargo test --test golden_scale
//! ```

use distvliw::arch::MachineConfig;
use distvliw::core::experiments::sweep_machine;
use distvliw::ir::Suite;

mod common;
use common::{assert_golden, compile_grid, render_stats, schedule_fingerprint};

/// The swept cluster counts not already covered by the 4-cluster golden
/// files.
const CLUSTER_COUNTS: [usize; 2] = [8, 16];

/// The pinned workload: chained + streaming synthetics and both bundled
/// traces.
fn pinned_suites() -> Vec<Suite> {
    let mut suites = vec![
        distvliw::mediabench::suite("gsmdec").expect("bundled benchmark"),
        distvliw::mediabench::suite("jpegenc").expect("bundled benchmark"),
    ];
    suites.extend(distvliw::mediabench::trace_suites());
    suites
}

#[test]
fn large_machine_behaviour_matches_golden_snapshot() {
    let base = MachineConfig::paper_baseline();
    let mut lines = Vec::new();
    for n_clusters in CLUSTER_COUNTS {
        let machine = sweep_machine(&base, n_clusters, base.mem_buses);
        for suite in pinned_suites() {
            for c in compile_grid(&machine, &suite, &[true]) {
                lines.push(format!(
                    "n={n_clusters} {}/{} {} {} II={} span={} copies={} fp={:016x} {}",
                    suite.name,
                    c.kernel,
                    c.solution,
                    c.heuristic,
                    c.schedule.ii,
                    c.schedule.span,
                    c.schedule.copies.len(),
                    schedule_fingerprint(&c.schedule),
                    render_stats(&c.stats)
                ));
            }
        }
    }
    assert_golden(
        "golden_scale",
        "tests/golden/scale_stats.txt",
        "large-machine behaviour",
        &lines,
        |_| String::new(),
    );
}
