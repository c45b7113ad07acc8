//! Helpers shared by the golden test binaries (`golden_parity`,
//! `golden_scale`): the grids they pin, compiled
//! through the real [`Pipeline`] with the independent checker on, the
//! schedule fingerprint, the statistics line format and the snapshot
//! comparison. One definition keeps every snapshot pinning the same
//! surface — a counter added to [`SimStats`] or a change to the
//! fingerprint scheme is either reflected in all golden files at once
//! or in none.
#![allow(dead_code)] // each test binary uses a subset

use std::fmt::Write as _;
use std::sync::Arc;

use distvliw::arch::{AccessClass, MachineConfig};
use distvliw::core::{cachekey, par, Pipeline, PipelineOptions, Solution};
use distvliw::ir::Suite;
use distvliw::sched::{Heuristic, SchedStats, Schedule};
use distvliw::sim::SimStats;

/// The coherence solutions a golden grid compiles.
const SOLUTIONS: [Solution; 3] = [Solution::Free, Solution::Mdc, Solution::Ddgt];

/// One pinned configuration of a golden grid.
pub struct Config {
    /// Kernel name.
    pub kernel: String,
    /// Lowercase solution label (`free`, `mdc`, `ddgt`).
    pub solution: String,
    /// Cluster-assignment heuristic.
    pub heuristic: Heuristic,
    /// Whether cache-sensitive latency relaxation was on.
    pub relax: bool,
    /// The schedule the pipeline emitted.
    pub schedule: Schedule,
    /// The scheduler's search effort for that schedule (empty schedule
    /// memo).
    pub sched: SchedStats,
    /// The simulated statistics of the schedule.
    pub stats: SimStats,
}

/// Compiles every kernel of `suite` on `machine` under both heuristics,
/// every solution and each latency mode in `relaxes`; see
/// [`compile_cells`]. Returns one [`Config`] per (kernel, heuristic,
/// solution, relax), in that order: the line order of every golden file.
pub fn compile_grid(machine: &MachineConfig, suite: &Suite, relaxes: &[bool]) -> Vec<Config> {
    let mut cells = Vec::new();
    for heuristic in [Heuristic::PrefClus, Heuristic::MinComs] {
        for solution in SOLUTIONS {
            for &relax in relaxes {
                cells.push((solution, heuristic, relax));
            }
        }
    }
    compile_cells(machine, suite, &cells)
}

/// Compiles every kernel of `suite` on `machine` through a [`Pipeline`]
/// with `check: true` — so the independent checker verifies every
/// schedule and fails the compile on any violation, whatever the build
/// profile — once per (solution, heuristic, relax) cell, each on a
/// fresh pipeline (an empty schedule memo), and replays each compiled
/// suite. The cells fan out over `core::par`. Returns one [`Config`]
/// per (kernel, cell), kernel-major.
pub fn compile_cells(
    machine: &MachineConfig,
    suite: &Suite,
    cells: &[(Solution, Heuristic, bool)],
) -> Vec<Config> {
    // Pool jobs own what they touch: one shared copy of the machine and
    // the suite.
    let shared = Arc::new((machine.clone(), suite.clone()));
    let compiled = par::par_map(cells, move |&(solution, heuristic, relax)| {
        let (machine, suite) = &*shared;
        let pipeline = Pipeline::new(machine.clone()).with_options(PipelineOptions {
            relax_latencies: relax,
            check: true,
        });
        let artifact = pipeline
            .compile_suite(suite, solution, heuristic)
            .unwrap_or_else(|e| panic!("{}: {e}", suite.name));
        let stats = pipeline.simulate_artifact(&artifact);
        (artifact, stats)
    });
    let mut grid = Vec::new();
    for i in 0..suite.kernels.len() {
        for (&(solution, heuristic, relax), (artifact, stats)) in cells.iter().zip(&compiled) {
            let kernel = &artifact.kernels[i];
            grid.push(Config {
                kernel: kernel.kernel().name.clone(),
                solution: solution.to_string().to_lowercase(),
                heuristic,
                relax,
                schedule: kernel.schedule().clone(),
                sched: kernel.sched,
                stats: stats.kernels[i].stats,
            });
        }
    }
    grid
}

/// FNV-1a over the full placement description (clusters, cycles,
/// assumed latency classes, copies), so a golden file stays compact
/// while still pinning every op.
pub fn schedule_fingerprint(s: &Schedule) -> u64 {
    let mut text = String::new();
    for (n, op) in &s.ops {
        let class = op
            .assumed_class
            .map_or_else(|| "-".to_string(), |c| format!("{c:?}"));
        let _ = writeln!(text, "{n} c{} t{} {class}", op.cluster, op.start);
    }
    for c in &s.copies {
        let _ = writeln!(
            text,
            "copy {} {}->{} t{}",
            c.producer, c.from_cluster, c.to_cluster, c.start
        );
    }
    cachekey::fnv1a64(text.as_bytes())
}

/// One snapshot line: every *pinned* counter of [`SimStats`], spelled
/// out so a diff names the exact statistic that moved. (The derived
/// `bus_drain_cycles` window is deliberately not pinned: it is bounded
/// below by counters that are.)
pub fn render_stats(stats: &SimStats) -> String {
    format!(
        "compute={} stall={} lh={} rh={} lm={} rm={} cb={} viol={} comm={} bus={} iters={}",
        stats.compute_cycles,
        stats.stall_cycles,
        stats.accesses.get(AccessClass::LocalHit),
        stats.accesses.get(AccessClass::RemoteHit),
        stats.accesses.get(AccessClass::LocalMiss),
        stats.accesses.get(AccessClass::RemoteMiss),
        stats.accesses.get(AccessClass::Combined),
        stats.coherence_violations,
        stats.comm_ops,
        stats.bus_busy_cycles,
        stats.iterations,
    )
}

/// Asserts that `lines` equal the snapshot at `path` line by line, or
/// rewrites the snapshot when `GOLDEN_UPDATE` is set. `test` names the
/// test binary for the regeneration hint, `what` the behaviour a
/// mismatch means changed, and `detail(i)` appends diagnostics for a
/// mismatch at line `i`.
pub fn assert_golden(
    test: &str,
    path: &str,
    what: &str,
    lines: &[String],
    detail: impl Fn(usize) -> String,
) {
    if std::env::var("GOLDEN_UPDATE").is_ok() {
        let rendered: String = lines.iter().map(|l| format!("{l}\n")).collect();
        std::fs::create_dir_all("tests/golden").expect("create golden dir");
        std::fs::write(path, rendered).expect("write golden file");
        eprintln!("updated {path} with {} entries", lines.len());
        return;
    }

    let golden = std::fs::read_to_string(path).unwrap_or_else(|_| {
        panic!("golden snapshot missing; run GOLDEN_UPDATE=1 cargo test --test {test}")
    });
    let golden_lines: Vec<&str> = golden.lines().collect();
    assert_eq!(
        golden_lines.len(),
        lines.len(),
        "configuration count changed: golden {} vs current {}",
        golden_lines.len(),
        lines.len()
    );
    for (i, (line, want)) in lines.iter().zip(&golden_lines).enumerate() {
        assert_eq!(
            line.as_str(),
            *want,
            "{what} diverged from golden snapshot.\n current: {line}\n  golden: {want}\n{}",
            detail(i)
        );
    }
}
