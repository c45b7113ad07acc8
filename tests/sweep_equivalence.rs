//! The factored schedule-once/sim-many sweep must be byte-identical to
//! the naive per-cell pipeline sweep, and the batched memory-system
//! classification must match the sequential `load`/`store` path exactly.

use distvliw::arch::{AttractionBufferConfig, MachineConfig};
use distvliw::core::experiments::{
    sweep, sweep_default_suites, sweep_points, sweep_row, SweepRow, SweepSpec, SWEEP_SOLUTIONS,
};
use distvliw::core::Pipeline;
use distvliw::ir::Suite;
use distvliw::sim::{BatchAccess, MemorySystem};
use proptest::prelude::*;

/// The naive reference sweep, the semantic definition the factored
/// `sweep` must reproduce: every `(cluster count, bus point, solution,
/// suite)` cell runs the full compile+simulate `Pipeline::run_suite`
/// path — no artifact reuse, no derived hybrid. A fresh pipeline per
/// cell, each with its own empty schedule memo, keeps the search-effort
/// counters reproducible: no cell is answered from another's schedules.
fn sweep_naive(base: &MachineConfig, suites: &[Suite], spec: &SweepSpec) -> Vec<SweepRow> {
    let mut rows = Vec::new();
    for machine in &sweep_points(base, spec) {
        for solution in SWEEP_SOLUTIONS {
            let per_suite: Vec<_> = suites
                .iter()
                .map(|suite| {
                    Pipeline::new(machine.clone())
                        .run_suite(suite, solution, spec.heuristic)
                        .unwrap_or_else(|e| {
                            panic!(
                                "{} clusters, {:?}, {solution}, {}: {e}",
                                machine.n_clusters, machine.mem_buses, suite.name
                            )
                        })
                })
                .collect();
            let refs: Vec<_> = per_suite.iter().collect();
            rows.push(sweep_row(
                machine.n_clusters,
                machine.mem_buses,
                solution,
                &refs,
            ));
        }
    }
    rows
}

/// The tentpole equivalence: every field of every row of the factored
/// default-grid sweep — including scheduler effort counters and the
/// per-cluster usage surface — equals the naive sweep that runs each
/// `(cluster count, bus point, solution, suite)` cell through a cold
/// `Pipeline::run_suite`.
#[test]
fn factored_sweep_is_byte_identical_to_naive() {
    let machine = MachineConfig::paper_baseline();
    let suites = sweep_default_suites();
    let spec = SweepSpec::default();

    let naive = sweep_naive(&machine, &suites, &spec);
    let run = sweep(&machine, &suites, &spec).expect("factored sweep runs");

    assert_eq!(run.rows.len(), naive.len());
    for (got, want) in run.rows.iter().zip(&naive) {
        let ctx = format!(
            "{} clusters, {}@{} buses, {}",
            want.n_clusters, want.mem_buses.count, want.mem_buses.latency, want.solution
        );
        assert_eq!(got.n_clusters, want.n_clusters, "{ctx}: n_clusters");
        assert_eq!(got.mem_buses, want.mem_buses, "{ctx}: mem_buses");
        assert_eq!(got.solution, want.solution, "{ctx}: solution");
        assert_eq!(got.total_cycles, want.total_cycles, "{ctx}: total_cycles");
        assert_eq!(got.stall_cycles, want.stall_cycles, "{ctx}: stall_cycles");
        assert_eq!(
            got.bus_busy_cycles, want.bus_busy_cycles,
            "{ctx}: bus_busy_cycles"
        );
        assert_eq!(
            got.bus_drain_cycles, want.bus_drain_cycles,
            "{ctx}: bus_drain_cycles"
        );
        assert_eq!(got.violations, want.violations, "{ctx}: violations");
        assert_eq!(got.accesses, want.accesses, "{ctx}: accesses");
        assert_eq!(got.cluster, want.cluster, "{ctx}: cluster usage");
        assert_eq!(got.sched, want.sched, "{ctx}: sched effort counters");
    }
}

/// The default grid's reuse arithmetic: 4 cluster counts × 2
/// sched-visible bus latencies × 3 concrete solutions × 3 suites = 72
/// compiled schedules; the halved-bus-count column reuses all 36 of its
/// cells; the doubled-latency column is sched-visible and falls back to
/// 36 recompiles.
#[test]
fn default_grid_reuse_counters_are_exact() {
    let run = sweep(
        &MachineConfig::paper_baseline(),
        &sweep_default_suites(),
        &SweepSpec::default(),
    )
    .expect("factored sweep runs");
    assert_eq!(run.reuse.schedules_compiled, 72);
    assert_eq!(run.reuse.schedules_reused, 36);
    assert_eq!(run.reuse.sched_axis_recompiles, 36);
}

/// Strategy: a mixed batch of loads, architectural stores and nullified
/// DDGT store instances from random clusters over a small address
/// range (small enough that subblocks collide, exercising combining,
/// pending fills and LRU pressure).
fn arb_batch(n_clusters: usize) -> impl Strategy<Value = Vec<BatchAccess>> {
    proptest::collection::vec(
        (0..n_clusters, 0u64..4096, any::<bool>(), any::<bool>()),
        1..24,
    )
    .prop_map(|accs| {
        accs.into_iter()
            .map(|(cluster, addr, store, executes)| BatchAccess {
                cluster,
                addr,
                store,
                executes,
            })
            .collect()
    })
}

/// Replays `windows` through both paths on clones of one cold memory
/// system and asserts identical per-access results and identical
/// observable state (global and per-cluster classification counters,
/// bus occupancy/drain and grant counts).
fn assert_batch_matches_sequential(machine: &MachineConfig, windows: &[Vec<BatchAccess>]) {
    let mut batched = MemorySystem::new(machine);
    let mut sequential = batched.clone();
    let mut out = Vec::new();
    for (i, window) in windows.iter().enumerate() {
        // Windows at spaced issue times, so earlier fills both stay
        // pending across windows and expire, covering both branches.
        let now = (i as u64) * 7;
        batched.run_batch(now, window, &mut out);
        let seq: Vec<_> = window
            .iter()
            .map(|a| {
                if a.store {
                    sequential.store(a.cluster, a.addr, now, a.executes)
                } else {
                    Some(sequential.load(a.cluster, a.addr, now))
                }
            })
            .collect();
        assert_eq!(out, seq, "window {i}: per-access results diverge");
    }
    assert_eq!(batched.counts, sequential.counts, "global counts");
    for c in 0..machine.n_clusters {
        assert_eq!(
            batched.counts_of_cluster(c),
            sequential.counts_of_cluster(c),
            "cluster {c} counts"
        );
    }
    assert_eq!(batched.bus_busy_cycles(), sequential.bus_busy_cycles());
    assert_eq!(batched.bus_drain_cycles(), sequential.bus_drain_cycles());
    assert_eq!(batched.mem_bus_grants(), sequential.mem_bus_grants());
    assert_eq!(batched.next_level_grants(), sequential.next_level_grants());
}

proptest! {
    /// `run_batch` over random access mixes is byte-identical — results
    /// and all observable counters — to the equivalent sequence of
    /// individual `load`/`store` calls, on the paper baseline (shift/mask
    /// address translation).
    #[test]
    fn run_batch_matches_sequential_on_baseline(
        windows in proptest::collection::vec(arb_batch(4), 1..6)
    ) {
        assert_batch_matches_sequential(&MachineConfig::paper_baseline(), &windows);
    }

    /// Same equivalence with Attraction Buffers enabled, covering the
    /// AB-refresh store lanes and AB-hit remote loads.
    #[test]
    fn run_batch_matches_sequential_with_attraction_buffers(
        windows in proptest::collection::vec(arb_batch(4), 1..6)
    ) {
        let machine = MachineConfig::paper_baseline()
            .with_attraction_buffers(AttractionBufferConfig::paper());
        assert_batch_matches_sequential(&machine, &windows);
    }
}
