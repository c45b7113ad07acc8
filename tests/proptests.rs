//! Property-based tests over randomly generated kernels, exercising the
//! whole stack: graph invariants under transformation, schedule legality,
//! simulator conservation laws and the pipeline's simulation memo.
//!
//! The `sim_*` counters are process-wide, so every test here that
//! simulates holds [`exclusive_counters`]: the memo test compares their
//! deltas.

use std::collections::{BTreeMap, BTreeSet};
use std::sync::{Arc, Barrier, Mutex, MutexGuard, PoisonError};

use distvliw::arch::{AttractionBufferConfig, BusConfig, MachineConfig};
use distvliw::coherence::{find_chains, transform, SchedConstraints};
use distvliw::core::{Pipeline, PipelineMemo, Solution, SuiteStats};
use distvliw::ir::{
    AddressStream, Ddg, DdgBuilder, DepKind, LoopKernel, NodeId, OpKind, PrefMap, Suite, Width,
    MAX_INVOCATIONS, MAX_TRIP_COUNT,
};
use distvliw::mediabench::trace;
use distvliw::sched::{Heuristic, ModuloScheduler};
use distvliw::sim::{simulate_kernel, simulate_kernel_detailed, SimOptions};
use proptest::prelude::*;

/// Serializes the tests that simulate, so one test's `sim_*` counter
/// deltas are its own.
fn exclusive_counters() -> MutexGuard<'static, ()> {
    static COUNTERS: Mutex<()> = Mutex::new(());
    COUNTERS.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Runs `f` and returns its output with how far it moved each `sim_*`
/// series of the global registry (histograms by their `_count`).
fn sim_deltas<R>(f: impl FnOnce() -> R) -> (R, BTreeMap<String, u64>) {
    let snapshot = || -> BTreeMap<String, u64> {
        distvliw_obs::global()
            .counter_snapshot()
            .into_iter()
            .filter(|(name, _)| name.starts_with("sim_"))
            .collect()
    };
    let before = snapshot();
    let out = f();
    let deltas = snapshot()
        .into_iter()
        .map(|(name, after)| {
            let delta = after - before.get(&name).copied().unwrap_or(0);
            (name, delta)
        })
        .collect();
    (out, deltas)
}

/// Strategy: a random well-formed loop kernel with `n_mem` memory ops on
/// a handful of arrays (shared arrays produce real aliasing), plus
/// arithmetic consumers and a sprinkle of conservative dependence edges.
fn arb_kernel() -> impl Strategy<Value = LoopKernel> {
    (
        2usize..10, // memory ops
        1usize..4,  // distinct arrays
        0usize..6,  // arithmetic ops
        proptest::collection::vec(any::<u8>(), 16),
        1u64..6, // trip count scale
    )
        .prop_map(|(n_mem, n_arrays, n_arith, entropy, trip_scale)| {
            let mut b = DdgBuilder::new();
            let mut loads: Vec<NodeId> = Vec::new();
            let mut mems = Vec::new();
            for i in 0..n_mem {
                let is_store = entropy[i % entropy.len()] % 3 == 0 && !loads.is_empty();
                let node = if is_store {
                    let src = loads[usize::from(entropy[(i + 5) % entropy.len()]) % loads.len()];
                    b.store(Width::W4, &[src])
                } else {
                    let l = b.load(Width::W4);
                    loads.push(l);
                    l
                };
                mems.push(node);
            }
            for i in 0..n_arith {
                let srcs: Vec<NodeId> = loads
                    .get(i % loads.len().max(1))
                    .copied()
                    .into_iter()
                    .collect();
                b.op(OpKind::IntAlu, &srcs);
            }
            let g = b.graph();
            // Conservative may-alias edges between memory ops that share
            // an array (assigned below by index % n_arrays).
            let mut edges = Vec::new();
            for (i, &a) in mems.iter().enumerate() {
                for (j, &c) in mems.iter().enumerate().skip(i + 1) {
                    if i % n_arrays != j % n_arrays {
                        continue;
                    }
                    let (src_store, dst_store) = (g.node(a).is_store(), g.node(c).is_store());
                    let kind = match (src_store, dst_store) {
                        (true, true) => DepKind::MemOut,
                        (true, false) => DepKind::MemFlow,
                        (false, true) => DepKind::MemAnti,
                        (false, false) => continue,
                    };
                    // Ops on one array share a stream and alias at every
                    // distance; a correct disambiguator reports each
                    // distance up to the window.
                    edges.push((a, c, kind, 0));
                    edges.push((a, c, kind, 1));
                }
            }
            for (a, c, kind, dist) in edges {
                b.dep(a, c, kind, dist);
            }
            let ddg = b.finish();
            let mem_sites: Vec<_> = ddg
                .mem_nodes()
                .map(|n| (n, ddg.node(n).mem_id().unwrap()))
                .collect();
            let mut kernel = LoopKernel::new("prop", ddg, 16 * trip_scale);
            for (idx, &(_, mem)) in mem_sites.iter().enumerate() {
                let base = 4096 + (idx % n_arrays) as u64 * 0x100;
                for image in [&mut kernel.profile, &mut kernel.exec] {
                    image.insert(mem, AddressStream::Affine { base, stride: 4 });
                }
            }
            kernel
        })
}

/// Strategy: the text of a one-kernel trace with one to three memory
/// records (on nearby addresses, so sites alias across clusters) and a
/// consumer block, whose trip count and invocations are drawn up to the
/// kernel limits, each at its limit half the time.
fn arb_limit_trace() -> impl Strategy<Value = String> {
    (
        proptest::collection::vec((any::<bool>(), 0u64..24, 0u64..5), 1..4),
        (any::<bool>(), 1..=MAX_TRIP_COUNT),
        (any::<bool>(), 1..=MAX_INVOCATIONS),
    )
        .prop_map(|(sites, (trip_at_limit, trip), (inv_at_limit, invocations))| {
            let trip = if trip_at_limit { MAX_TRIP_COUNT } else { trip };
            let invocations = if inv_at_limit { MAX_INVOCATIONS } else { invocations };
            let mut text = format!(
                "trace limits interleave=4 clusters=4\nkernel k trip={trip} invocations={invocations}\n"
            );
            for (i, (store, offset, stride)) in sites.into_iter().enumerate() {
                let dir = if store && i > 0 { "store" } else { "load" };
                let stream = format!("affine:{}:{}", 0x1000 + 2 * offset, 4 << stride);
                text += &format!("mem {dir} w4 profile={stream} exec={stream}\n");
            }
            text + "arith int count=2 depth=0\nend\n"
        })
}

/// All dependences of `ddg` hold in the schedule (issue-order semantics).
fn schedule_respects_deps(ddg: &Ddg, s: &distvliw::sched::Schedule) -> bool {
    ddg.deps().all(|(_, d)| {
        if d.src == d.dst {
            return true;
        }
        let a = s.op(d.src);
        let b = s.op(d.dst);
        let min_sep = i64::from(d.kind.min_separation());
        i64::from(b.start) + i64::from(s.ii) * i64::from(d.distance) >= i64::from(a.start) + min_sep
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn mdc_chains_partition_memory_ops(kernel in arb_kernel()) {
        let chains = find_chains(&kernel.ddg);
        let mut seen = BTreeSet::new();
        for members in chains.chains() {
            for &n in members {
                prop_assert!(seen.insert(n), "node {n} in two chains");
            }
        }
        // Every memory op belongs to exactly one chain.
        let mem: BTreeSet<_> = kernel.ddg.mem_nodes().collect();
        prop_assert_eq!(seen, mem);
        // Chains are closed under memory dependence edges.
        for (_, d) in kernel.ddg.mem_dep_edges() {
            prop_assert_eq!(chains.chain_of(d.src), chains.chain_of(d.dst));
        }
    }

    #[test]
    fn ddgt_removes_all_ma_edges_and_stays_acyclic(kernel in arb_kernel()) {
        let mut ddg = kernel.ddg.clone();
        let report = transform(&mut ddg, 4);
        prop_assert!(ddg.deps().all(|(_, d)| d.kind != DepKind::MemAnti));
        prop_assert!(!ddg.has_zero_distance_cycle());
        // Every dependent store has exactly 4 instances.
        for group in &report.replica_groups {
            prop_assert_eq!(group.instances.len(), 4);
        }
        // Replicas share the original's memory site.
        for group in &report.replica_groups {
            let site = ddg.node(group.root).mem_id();
            for &i in &group.instances {
                prop_assert_eq!(ddg.node(i).mem_id(), site);
            }
        }
    }

    #[test]
    fn schedules_are_legal_for_all_solutions(kernel in arb_kernel()) {
        let machine = MachineConfig::paper_baseline();
        let sched = ModuloScheduler::new(&machine);
        // Free.
        let s = sched
            .schedule(&kernel.ddg, &SchedConstraints::none(), &PrefMap::new(), Heuristic::MinComs)
            .unwrap();
        prop_assert!(schedule_respects_deps(&kernel.ddg, &s));
        // MDC: chains colocated.
        let chains = find_chains(&kernel.ddg);
        let c = SchedConstraints::for_mdc(&chains, &kernel.ddg, None, 4);
        let s = sched.schedule(&kernel.ddg, &c, &PrefMap::new(), Heuristic::MinComs).unwrap();
        prop_assert!(schedule_respects_deps(&kernel.ddg, &s));
        for (_, members) in chains.nontrivial() {
            let cluster = s.op(members[0]).cluster;
            prop_assert!(members.iter().all(|&n| s.op(n).cluster == cluster));
        }
        // DDGT: instances pinned one per cluster.
        let mut ddg = kernel.ddg.clone();
        let report = transform(&mut ddg, 4);
        let c = SchedConstraints::for_ddgt(&report);
        let s = sched.schedule(&ddg, &c, &PrefMap::new(), Heuristic::MinComs).unwrap();
        prop_assert!(schedule_respects_deps(&ddg, &s));
        for group in &report.replica_groups {
            let mut clusters: Vec<_> = group.instances.iter().map(|&i| s.op(i).cluster).collect();
            clusters.sort_unstable();
            prop_assert_eq!(clusters, vec![0, 1, 2, 3]);
        }
    }

    #[test]
    fn simulation_conserves_accesses_and_never_violates_under_mdc(kernel in arb_kernel()) {
        let _counters = exclusive_counters();
        let machine = MachineConfig::paper_baseline();
        let chains = find_chains(&kernel.ddg);
        let constraints = SchedConstraints::for_mdc(&chains, &kernel.ddg, None, 4);
        let s = ModuloScheduler::new(&machine)
            .schedule(&kernel.ddg, &constraints, &PrefMap::new(), Heuristic::MinComs)
            .unwrap();
        let stats = simulate_kernel(&machine, &kernel, &s, SimOptions);
        prop_assert_eq!(stats.accesses.total(), kernel.dyn_mem_accesses());
        prop_assert_eq!(stats.coherence_violations, 0);
        prop_assert_eq!(stats.total_cycles(), stats.compute_cycles + stats.stall_cycles);
        prop_assert!(stats.compute_cycles >= u64::from(s.span));
    }

    #[test]
    fn ddgt_simulation_is_coherent_too(kernel in arb_kernel()) {
        let _counters = exclusive_counters();
        let machine = MachineConfig::paper_baseline();
        let mut k = kernel.clone();
        let report = transform(&mut k.ddg, 4);
        let constraints = SchedConstraints::for_ddgt(&report);
        let s = ModuloScheduler::new(&machine)
            .schedule(&k.ddg, &constraints, &PrefMap::new(), Heuristic::PrefClus)
            .unwrap();
        let stats = simulate_kernel(&machine, &k, &s, SimOptions);
        prop_assert_eq!(stats.coherence_violations, 0);
        // Replication never changes the architectural access count.
        prop_assert_eq!(stats.accesses.total(), kernel.dyn_mem_accesses());
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Every kernel inside the limits simulates every iteration of
    /// every invocation without overflowing a counter: a debug build
    /// panics on overflow, and the scaling is checked in any build.
    #[test]
    fn kernels_at_the_limits_simulate_without_overflow(
        text in arb_limit_trace(),
        solution in 0usize..3,
    ) {
        let _counters = exclusive_counters();
        let suite = trace::parse(&text).unwrap().to_suite();
        let kernel = &suite.kernels[0];
        prop_assert_eq!(kernel.validate(), Ok(()));
        let solution = [Solution::Free, Solution::Mdc, Solution::Ddgt][solution];
        let run = Pipeline::new(MachineConfig::paper_baseline())
            .run_suite(&suite, solution, Heuristic::MinComs)
            .unwrap();
        let stats = run.total;
        let (trip, invocations) = (kernel.trip_count, kernel.invocations);
        prop_assert_eq!(stats.iterations, trip * invocations);
        prop_assert_eq!(stats.accesses.total(), kernel.dyn_mem_accesses());
        let k = &run.kernels[0];
        let compute = (trip - 1) * u64::from(k.ii) + u64::from(k.span);
        prop_assert_eq!(stats.compute_cycles, compute * invocations);
        prop_assert!(stats.bus_drain_cycles >= stats.total_cycles());
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// A simulation memo hit returns exactly the statistics a fresh
    /// simulation of the same compiled kernel returns, and moves every
    /// `sim_*` work counter by the same amount; it adds one memo hit and
    /// records no duration.
    #[test]
    fn a_simulation_memo_hit_replays_a_fresh_run(
        kernel in arb_kernel(),
        solution in 0usize..3,
        heuristic in any::<bool>(),
        buses in 1usize..5,
        interleave in 0u32..3,
        attraction in any::<bool>(),
    ) {
        let _counters = exclusive_counters();
        let solution = [Solution::Free, Solution::Mdc, Solution::Ddgt][solution];
        let heuristic = if heuristic { Heuristic::PrefClus } else { Heuristic::MinComs };
        let mut machine = MachineConfig::paper_baseline()
            .with_mem_buses(BusConfig { count: buses, latency: 2 });
        if attraction {
            machine = machine.with_attraction_buffers(AttractionBufferConfig::paper());
        }
        let mut suite = Suite::new("prop", 2 << interleave);
        suite.kernels.push(kernel);
        let pipeline = Pipeline::new(machine.clone());
        let artifact = pipeline.compile_suite(&suite, solution, heuristic).unwrap();
        let (miss, miss_deltas) = sim_deltas(|| pipeline.simulate_artifact(&artifact));
        let compiled = &artifact.kernels[0];
        let sim_machine = machine.with_interleave(suite.interleave_bytes);
        let (fresh, fresh_deltas) = sim_deltas(|| {
            simulate_kernel_detailed(&sim_machine, compiled.kernel(), compiled.schedule(), SimOptions)
        });
        let (hit, hit_deltas) = sim_deltas(|| pipeline.simulate_artifact(&artifact));

        prop_assert_eq!(&miss.kernels[0].stats, &fresh.0);
        prop_assert_eq!(&hit.kernels[0].stats, &fresh.0);
        prop_assert_eq!(&hit.kernels[0].cluster, &fresh.1);
        prop_assert_eq!(&miss_deltas, &fresh_deltas);
        prop_assert_eq!(fresh_deltas["sim_kernel_duration_us_count"], 1);
        prop_assert_eq!(fresh_deltas["sim_memo_hits_total"], 0);
        let mut expected = fresh_deltas;
        expected.insert("sim_kernel_duration_us_count".into(), 0);
        expected.insert("sim_memo_hits_total".into(), 1);
        prop_assert_eq!(hit_deltas, expected);
    }
}

/// N threads released at once by a barrier run one cell on a shared
/// memo, at fixed widths whatever the host's CPU count: each distinct
/// kernel simulation runs once, every other one counts as a hit, and
/// every run counts as served.
#[test]
fn concurrent_runs_simulate_each_kernel_once() {
    let _counters = exclusive_counters();
    let suite = distvliw::mediabench::suite("epicenc").unwrap();
    let kernels = suite.kernels.len() as u64;
    let run = |memo: &Arc<PipelineMemo>| {
        Pipeline::new(MachineConfig::paper_baseline())
            .with_memo(memo.clone())
            .run_suite(&suite, Solution::Mdc, Heuristic::PrefClus)
            .unwrap()
    };

    // One serial run on a fresh memo simulates each distinct kernel.
    let (serial, deltas) = sim_deltas(|| run(&Arc::new(PipelineMemo::new())));
    let distinct = deltas["sim_kernel_duration_us_count"];
    assert!(distinct > 0 && distinct <= kernels);
    assert_eq!(deltas["sim_memo_hits_total"], kernels - distinct);

    for threads in [2u64, 4] {
        let memo = Arc::new(PipelineMemo::new());
        let barrier = Barrier::new(threads as usize);
        let (runs, deltas) = sim_deltas(|| {
            std::thread::scope(|scope| {
                let handles: Vec<_> = (0..threads)
                    .map(|_| {
                        scope.spawn(|| {
                            barrier.wait();
                            run(&memo)
                        })
                    })
                    .collect();
                handles
                    .into_iter()
                    .map(|h| h.join().unwrap())
                    .collect::<Vec<SuiteStats>>()
            })
        });
        assert_eq!(
            deltas["sim_kernel_duration_us_count"], distinct,
            "{threads} threads: one simulation per distinct kernel"
        );
        assert_eq!(
            deltas["sim_memo_hits_total"],
            threads * kernels - distinct,
            "{threads} threads: every other simulation is a hit"
        );
        assert_eq!(deltas["sim_kernels_total"], threads * kernels);
        for r in &runs {
            assert_eq!(r.total, serial.total);
            assert_eq!(r.cluster, serial.cluster);
        }
    }
}
