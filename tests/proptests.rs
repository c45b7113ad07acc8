//! Property-based tests over randomly generated kernels, exercising the
//! whole stack: graph invariants under transformation, schedule legality
//! and simulator conservation laws.

use std::collections::BTreeSet;

use distvliw::arch::MachineConfig;
use distvliw::coherence::{find_chains, transform, SchedConstraints};
use distvliw::core::{Pipeline, Solution};
use distvliw::ir::{
    AddressStream, Ddg, DdgBuilder, DepKind, LoopKernel, NodeId, OpKind, PrefMap, Width,
    MAX_INVOCATIONS, MAX_TRIP_COUNT,
};
use distvliw::mediabench::trace;
use distvliw::sched::{Heuristic, ModuloScheduler};
use distvliw::sim::{simulate_kernel, SimOptions};
use proptest::prelude::*;

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
