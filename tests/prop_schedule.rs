//! Property tests over the sweep's machine axis: for random synthetic
//! kernels across 2/4/8/16 clusters, every emitted schedule must
//! respect the MRT resource limits (per-cluster functional units, the
//! shared register buses) and all dependence separations, and the
//! simulated statistics must satisfy their conservation invariants
//! (violations ≤ accesses, `bus_busy_cycles` ≤ the bus drain window ×
//! memory bus count). This pins the large-machine configurations the
//! sensitivity sweep opened — the seed suite only ever exercised the
//! paper's 4-cluster machine.

use std::collections::{BTreeMap, BinaryHeap};

use distvliw::arch::{LatencyClass, MachineConfig};
use distvliw::coherence::{find_chains, transform, SchedConstraints};
use distvliw::core::experiments::sweep_machine;
use distvliw::ir::{
    AddressStream, Ddg, DdgBuilder, DepKind, FuClass, LoopKernel, NodeId, NodeMap, OpKind, PrefMap,
    Width,
};
use distvliw::mediabench::eject_stress_kernel;
use distvliw::sched::mii::{dep_latency, RecMiiSolver};
use distvliw::sched::{Heuristic, ModuloScheduler, Mrt, PriorityOrder, Schedule, SEED_II_SLACK};
use distvliw::sim::{simulate_kernel, SimOptions};
use proptest::prelude::*;

/// The sweep's cluster-count axis.
const CLUSTER_COUNTS: [usize; 4] = [2, 4, 8, 16];

/// Strategy: a random well-formed kernel — memory ops over a few arrays
/// (shared arrays alias for real), arithmetic consumers, conservative
/// edges — paired with one of the swept cluster counts.
fn arb_case() -> impl Strategy<Value = (LoopKernel, usize)> {
    (
        2usize..10, // memory ops
        1usize..4,  // distinct arrays
        0usize..8,  // arithmetic ops
        proptest::collection::vec(any::<u8>(), 16),
        1u64..5,   // trip scale
        0usize..4, // cluster-count index
    )
        .prop_map(|(n_mem, n_arrays, n_arith, entropy, trip_scale, ci)| {
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
                b.op(
                    if i % 3 == 0 {
                        OpKind::IntMul
                    } else {
                        OpKind::IntAlu
                    },
                    &srcs,
                );
            }
            let g = b.graph();
            let mut edges = Vec::new();
            for (i, &a) in mems.iter().enumerate() {
                for (j, &c) in mems.iter().enumerate().skip(i + 1) {
                    if i % n_arrays != j % n_arrays {
                        continue;
                    }
                    let kind = match (g.node(a).is_store(), g.node(c).is_store()) {
                        (true, true) => DepKind::MemOut,
                        (true, false) => DepKind::MemFlow,
                        (false, true) => DepKind::MemAnti,
                        (false, false) => continue,
                    };
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
            (kernel, CLUSTER_COUNTS[ci])
        })
}

/// All dependences hold in the schedule (issue-order separations).
fn respects_deps(ddg: &Ddg, s: &Schedule) -> bool {
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

/// Rebuilds the modulo reservation table from the finished schedule and
/// checks every machine limit: per-cluster per-class FU slots, and the
/// shared register buses (each copy occupies `reg_buses.latency`
/// consecutive modulo slots, the same accounting `sched::Mrt` uses).
fn respects_mrt(machine: &MachineConfig, ddg: &Ddg, s: &Schedule) -> Result<(), String> {
    let ii = s.ii;
    let mut fu: BTreeMap<(usize, usize, u32), u32> = BTreeMap::new();
    for (&n, op) in &s.ops {
        let Some(class) = ddg.node(n).kind.fu_class() else {
            continue;
        };
        if op.cluster >= machine.n_clusters {
            return Err(format!("node {n} placed in cluster {}", op.cluster));
        }
        let slot = op.start % ii;
        let used = fu.entry((op.cluster, class.index(), slot)).or_insert(0);
        *used += 1;
        let cap = match class {
            FuClass::Integer => machine.fu.integer,
            FuClass::Fp => machine.fu.fp,
            FuClass::Memory => machine.fu.memory,
        } as u32;
        if *used > cap {
            return Err(format!(
                "{class} units oversubscribed in cluster {} slot {slot}: {used} > {cap}",
                op.cluster
            ));
        }
    }
    let mut bus = vec![0u32; ii as usize];
    for c in &s.copies {
        if c.from_cluster >= machine.n_clusters || c.to_cluster >= machine.n_clusters {
            return Err(format!("copy of {} crosses a phantom cluster", c.producer));
        }
        for i in 0..machine.reg_buses.latency {
            let slot = ((c.start + i) % ii) as usize;
            bus[slot] += 1;
            if bus[slot] > machine.reg_buses.count as u32 {
                return Err(format!(
                    "register buses oversubscribed at slot {slot}: {} > {}",
                    bus[slot], machine.reg_buses.count
                ));
            }
        }
    }
    Ok(())
}

/// Runs the full legality + simulation invariant check for one
/// compiled configuration.
fn check_solution(
    machine: &MachineConfig,
    kernel: &LoopKernel,
    ddg: &Ddg,
    constraints: &SchedConstraints,
    heuristic: Heuristic,
) -> Result<(), TestCaseError> {
    let s = ModuloScheduler::new(machine)
        .schedule(ddg, constraints, &PrefMap::new(), heuristic)
        .expect("random kernels schedule");
    prop_assert!(respects_deps(ddg, &s));
    // The independent verifier must agree with the inline invariants:
    // one disagreement means either the scheduler or the checker is
    // wrong, and both are pinned here.
    let report = distvliw::check::check_schedule(ddg, machine, constraints, heuristic, &s);
    prop_assert!(
        report.is_clean(),
        "{}-cluster checker violation: {report}",
        machine.n_clusters
    );
    if let Err(e) = respects_mrt(machine, ddg, &s) {
        return Err(TestCaseError::fail(format!(
            "{}-cluster MRT violation: {e}",
            machine.n_clusters
        )));
    }
    let stats = simulate_kernel(machine, kernel, &s, SimOptions);
    prop_assert!(
        stats.coherence_violations <= stats.accesses.total(),
        "violations {} exceed accesses {}",
        stats.coherence_violations,
        stats.accesses.total()
    );
    // The bus capacity invariant: at most `count` concurrent transfers
    // over the run's drain window (which is at least `total_cycles`;
    // fire-and-forget stores can keep the buses busy past the last
    // issue cycle, which is why the window is the drain, not the issue
    // span).
    prop_assert!(stats.bus_drain_cycles >= stats.total_cycles());
    prop_assert!(
        stats.bus_busy_cycles <= stats.bus_drain_cycles * machine.mem_buses.count as u64,
        "bus busy {} exceeds {} drain cycles × {} buses",
        stats.bus_busy_cycles,
        stats.bus_drain_cycles,
        machine.mem_buses.count
    );
    prop_assert_eq!(stats.accesses.total(), kernel.dyn_mem_accesses());
    prop_assert_eq!(
        stats.total_cycles(),
        stats.compute_cycles + stats.stall_cycles
    );
    Ok(())
}

/// A long MDC-pinned memory chain at `n_clusters`, scheduled. Returns
/// the problem and its schedule + stats pair.
fn schedule_stress(
    n_clusters: usize,
    chain_len: usize,
) -> (
    LoopKernel,
    SchedConstraints,
    PrefMap,
    MachineConfig,
    (Schedule, distvliw::sched::SchedStats),
) {
    let machine = sweep_machine(
        &MachineConfig::paper_baseline(),
        n_clusters,
        MachineConfig::paper_baseline().mem_buses,
    );
    let (kernel, prefs) = eject_stress_kernel(n_clusters, chain_len);
    let chains = find_chains(&kernel.ddg);
    let constraints = SchedConstraints::for_mdc(&chains, &kernel.ddg, Some(&prefs), n_clusters);
    let eject = ModuloScheduler::new(&machine)
        .schedule_with_stats(&kernel.ddg, &constraints, &prefs, Heuristic::PrefClus)
        .expect("stress kernel schedules with ejection");
    (kernel, constraints, prefs, machine, eject)
}

/// The II the restart-only scan (one from-scratch plain placement pass
/// per II, no ejection) achieved on [`schedule_stress`]'s chain, per
/// cluster count, recorded when the scheduler could still switch
/// ejection off.
const RESTART_IIS: [(usize, u32); 2] = [(8, 9), (16, 17)];

#[test]
fn ejection_beats_restart_on_pinned_memory_chains() {
    // The adversarial shape of the ISSUE: a chain colocated (and
    // profile-pinned) in cluster 0 at its constrained MII, with a
    // higher-priority intruder load occupying the one memory slot the
    // chain needs. Restart-only must surrender the II; ejection evicts
    // the intruder and keeps it — a *strictly* lower II at 8 and 16
    // clusters.
    for (n_clusters, restart_ii) in RESTART_IIS {
        let chain_len = n_clusters; // constrained MII == chain length
        let (kernel, _, _, machine, (es, estat)) = schedule_stress(n_clusters, chain_len);
        assert!(
            es.ii < restart_ii,
            "{n_clusters} clusters: ejection II {} must beat restart II {restart_ii}",
            es.ii,
        );
        assert_eq!(es.ii, chain_len as u32, "chain fits at its bound");
        assert!(estat.ejections > 0, "the win must come from ejection");
        // The schedule stays legal.
        assert!(respects_deps(&kernel.ddg, &es));
        respects_mrt(&machine, &kernel.ddg, &es).unwrap();
    }
}

/// Asserts the warm-seed property for one problem: for every seed from
/// 0 to the cold II + [`SEED_II_SLACK`], the seeded search returns the
/// cold schedule, and its stats are exactly what the cold search's
/// `SearchRecord` derives for that seed — the stats a schedule memo
/// hit reports.
fn assert_record_predicts_seeded_searches(
    machine: &MachineConfig,
    ddg: &Ddg,
    constraints: &SchedConstraints,
    prefs: &PrefMap,
    heuristic: Heuristic,
) -> Result<(), TestCaseError> {
    let (cold, record) = ModuloScheduler::new(machine)
        .schedule_with_record(ddg, constraints, prefs, heuristic)
        .expect("cold search schedules");
    for seed in (0..=cold.ii + SEED_II_SLACK).map(Some).chain([None]) {
        let (warm, stats) = ModuloScheduler::new(machine)
            .with_ii_seed(seed)
            .schedule_with_stats(ddg, constraints, prefs, heuristic)
            .expect("seeded search schedules");
        prop_assert_eq!(
            &warm,
            &cold,
            "seed {:?}: a seed must not change the schedule",
            seed
        );
        prop_assert_eq!(record.stats(seed), stats, "seed {:?}", seed);
        prop_assert_eq!(
            stats.seeded_at,
            seed.map(|s| s.saturating_sub(SEED_II_SLACK))
                .filter(|&s| s > stats.mii)
        );
        prop_assert_eq!(
            stats.iis_tried,
            cold.ii - stats.seeded_at.unwrap_or(stats.mii) + 1
        );
    }
    Ok(())
}

#[test]
fn ii_seed_reproduces_the_cold_search_with_less_work() {
    // Seeding with the achieved II must reproduce the exact same
    // schedule while skipping the re-failing II range below it.
    let (kernel, constraints, prefs, machine, (cold, cold_stat)) = schedule_stress(8, 8);
    let (warm, warm_stat) = ModuloScheduler::new(&machine)
        .with_ii_seed(Some(cold.ii))
        .schedule_with_stats(&kernel.ddg, &constraints, &prefs, Heuristic::PrefClus)
        .expect("seeded search schedules");
    assert_eq!(warm, cold, "a warm seed must not change the schedule");
    assert_eq!(
        warm_stat.seeded_at,
        Some(cold.ii.saturating_sub(2)).filter(|&s| s > warm_stat.mii)
    );
    assert!(warm_stat.placement_attempts <= cold_stat.placement_attempts);
    assert_record_predicts_seeded_searches(
        &machine,
        &kernel.ddg,
        &constraints,
        &prefs,
        Heuristic::PrefClus,
    )
    .unwrap();
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn schedules_respect_resources_and_sim_invariants_at_every_scale(case in arb_case()) {
        let (kernel, n_clusters) = case;
        let machine = sweep_machine(
            &MachineConfig::paper_baseline(),
            n_clusters,
            MachineConfig::paper_baseline().mem_buses,
        );

        // Free.
        check_solution(
            &machine,
            &kernel,
            &kernel.ddg,
            &SchedConstraints::none(),
            Heuristic::MinComs,
        )?;

        // MDC: chains colocated in one (real) cluster.
        let chains = find_chains(&kernel.ddg);
        let constraints = SchedConstraints::for_mdc(&chains, &kernel.ddg, None, n_clusters);
        check_solution(&machine, &kernel, &kernel.ddg, &constraints, Heuristic::PrefClus)?;

        // DDGT: one replica instance per cluster, for *this* cluster count.
        let mut k = kernel.clone();
        let report = transform(&mut k.ddg, n_clusters);
        for group in &report.replica_groups {
            prop_assert_eq!(group.instances.len(), n_clusters);
        }
        let constraints = SchedConstraints::for_ddgt(&report);
        check_solution(&machine, &k, &k.ddg, &constraints, Heuristic::MinComs)?;
    }

    #[test]
    fn ejection_never_returns_a_higher_ii(case in arb_case()) {
        // For every random kernel, at every swept scale, under MDC
        // colocation (the constraint family that used to trigger the
        // degenerate II blowup): the ejection scheduler must never do
        // worse than the restart-only search, and its schedules must
        // stay legal. Every II trial is one worklist pass that starts
        // by doing exactly the restart-only scan's plain pass and only
        // deviates (by ejecting) where that pass would have failed, so a
        // search that tried each II from the MII up to the one it
        // returned never passed an II the restart-only scan would have
        // taken.
        let (kernel, n_clusters) = case;
        let machine = sweep_machine(
            &MachineConfig::paper_baseline(),
            n_clusters,
            MachineConfig::paper_baseline().mem_buses,
        );
        let chains = find_chains(&kernel.ddg);
        let constraints = SchedConstraints::for_mdc(&chains, &kernel.ddg, None, n_clusters);
        for heuristic in [Heuristic::PrefClus, Heuristic::MinComs] {
            let (eject, stats) = ModuloScheduler::new(&machine)
                .schedule_with_stats(&kernel.ddg, &constraints, &PrefMap::new(), heuristic)
                .expect("ejection scheduler places random kernels");
            prop_assert_eq!(
                stats.iis_tried,
                eject.ii - stats.mii + 1,
                "{} clusters/{}: the search skipped an II between MII {} and II {}",
                n_clusters,
                heuristic,
                stats.mii,
                eject.ii
            );
            prop_assert!(respects_deps(&kernel.ddg, &eject));
            if let Err(e) = respects_mrt(&machine, &kernel.ddg, &eject) {
                return Err(TestCaseError::fail(format!(
                    "{n_clusters}-cluster ejection MRT violation: {e}"
                )));
            }
        }
    }

    #[test]
    fn search_record_predicts_every_seeded_search(case in arb_case()) {
        // The schedule memo answers a repeat problem from the cold
        // search's record: for every random kernel, under MDC
        // colocation (which lifts IIs above the MII, so seeds apply) and
        // DDGT, at every swept scale, each seeded search must be the
        // record's suffix exactly.
        let (kernel, n_clusters) = case;
        let machine = sweep_machine(
            &MachineConfig::paper_baseline(),
            n_clusters,
            MachineConfig::paper_baseline().mem_buses,
        );
        let chains = find_chains(&kernel.ddg);
        let mdc = SchedConstraints::for_mdc(&chains, &kernel.ddg, None, n_clusters);
        let mut ddgt = kernel.ddg.clone();
        let ddgt_constraints = SchedConstraints::for_ddgt(&transform(&mut ddgt, n_clusters));
        for heuristic in [Heuristic::PrefClus, Heuristic::MinComs] {
            assert_record_predicts_seeded_searches(
                &machine, &kernel.ddg, &mdc, &PrefMap::new(), heuristic,
            )?;
            assert_record_predicts_seeded_searches(
                &machine, &ddgt, &ddgt_constraints, &PrefMap::new(), heuristic,
            )?;
        }
    }

    #[test]
    fn mrt_rollback_is_byte_identical_after_rejected_ejection_chains(
        ops in proptest::collection::vec((0usize..4, 0u32..8, 0usize..3), 1..40),
        ii in 1u32..9,
    ) {
        // Drive the reservation table through a random committed state,
        // then a random ejection chain (targeted releases interleaved
        // with fresh reservations), then reject it: the table must come
        // back *byte-identical* to the checkpoint snapshot.
        let machine = MachineConfig::paper_baseline();
        let mut mrt = Mrt::new(&machine, ii);
        let classes = [FuClass::Integer, FuClass::Fp, FuClass::Memory];
        let mut committed: Vec<(usize, FuClass, u32)> = Vec::new();
        let (seed, chain) = ops.split_at(ops.len() / 2);
        for &(cluster, cycle, class) in seed {
            let class = classes[class];
            if mrt.fu_free(cluster, class, cycle) {
                mrt.reserve_fu(cluster, class, cycle);
                committed.push((cluster, class, cycle));
            } else if mrt.bus_free(cycle) {
                mrt.reserve_bus(cycle);
            }
        }
        let before = mrt.cells();
        let mark = mrt.checkpoint();
        for (i, &(cluster, cycle, class)) in chain.iter().enumerate() {
            // Alternate targeted releases of committed cells with new
            // reservations, like a real ejection chain does.
            if i % 2 == 0 && !committed.is_empty() {
                let (c, cl, cy) = committed[i % committed.len()];
                mrt.release_fu(c, cl, cy);
                committed.retain(|&e| e != (c, cl, cy));
            } else {
                let class = classes[class];
                if mrt.fu_free(cluster, class, cycle) {
                    mrt.reserve_fu(cluster, class, cycle);
                } else if mrt.bus_free(cycle) {
                    mrt.reserve_bus(cycle);
                }
            }
        }
        mrt.rollback(mark);
        prop_assert_eq!(mrt.cells(), before, "rejected chain must restore the table exactly");
    }

    #[test]
    fn mdc_and_ddgt_stay_coherent_at_every_scale(case in arb_case()) {
        let (kernel, n_clusters) = case;
        let machine = sweep_machine(
            &MachineConfig::paper_baseline(),
            n_clusters,
            MachineConfig::paper_baseline().mem_buses,
        );
        let chains = find_chains(&kernel.ddg);
        let constraints = SchedConstraints::for_mdc(&chains, &kernel.ddg, None, n_clusters);
        let s = ModuloScheduler::new(&machine)
            .schedule(&kernel.ddg, &constraints, &PrefMap::new(), Heuristic::MinComs)
            .unwrap();
        let stats = simulate_kernel(&machine, &kernel, &s, SimOptions);
        prop_assert_eq!(stats.coherence_violations, 0);

        let mut k = kernel.clone();
        let report = transform(&mut k.ddg, n_clusters);
        let constraints = SchedConstraints::for_ddgt(&report);
        let s = ModuloScheduler::new(&machine)
            .schedule(&k.ddg, &constraints, &PrefMap::new(), Heuristic::PrefClus)
            .unwrap();
        let stats = simulate_kernel(&machine, &k, &s, SimOptions);
        prop_assert_eq!(stats.coherence_violations, 0);
        prop_assert_eq!(stats.accesses.total(), kernel.dyn_mem_accesses());
    }
}

/// The load-latency classes a search assigns.
const CLASSES: [LatencyClass; 4] = [
    LatencyClass::LocalHit,
    LatencyClass::RemoteHit,
    LatencyClass::LocalMiss,
    LatencyClass::RemoteMiss,
];

/// SplitMix64 over `state`: the draws of one generated graph.
fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Strategy: a random graph with recurrences — loads, stores, integer
/// and FP ops with register flow from earlier values, forward memory
/// edges at distance 0 or 1, loop-carried back edges (self edges
/// included) of register flow and memory kinds — with a seed for the
/// latency assignments a test draws. Every zero-distance edge points
/// forward, so no zero-distance cycle forms.
fn arb_recurrent_graph() -> impl Strategy<Value = (Ddg, u64)> {
    (2usize..28, 0usize..12, any::<u64>()).prop_map(|(n, extra, seed)| {
        let mut state = seed;
        let mut draw = |bound: usize| (splitmix(&mut state) % bound as u64) as usize;
        let mut b = DdgBuilder::new();
        let mut nodes: Vec<NodeId> = Vec::new();
        let mut values: Vec<NodeId> = Vec::new();
        for _ in 0..n {
            let src = (!values.is_empty()).then(|| values[draw(values.len())]);
            let node = match (draw(4), src) {
                (1, Some(v)) => b.store(Width::W4, &[v]),
                (2, _) => {
                    let srcs: Vec<NodeId> = src.into_iter().collect();
                    b.op(OpKind::IntAlu, &srcs)
                }
                (3, Some(v)) => b.op(OpKind::FpMul, &[v]),
                _ => b.load(Width::W4),
            };
            if !b.graph().node(node).is_store() {
                values.push(node);
            }
            nodes.push(node);
        }
        for _ in 0..extra {
            let (i, j) = (draw(n), draw(n));
            let (lo, hi) = (nodes[i.min(j)], nodes[i.max(j)]);
            let kind = [
                DepKind::MemFlow,
                DepKind::MemAnti,
                DepKind::MemOut,
                DepKind::Sync,
            ][draw(4)];
            if lo != hi {
                b.dep(lo, hi, kind, draw(2) as u32);
            }
            // A loop-carried edge back (or onto itself).
            let distance = 1 + draw(3) as u32;
            if draw(2) == 0 && !b.graph().node(hi).is_store() {
                b.recurrence(hi, lo, distance);
            } else {
                b.dep(hi, lo, kind, distance);
            }
        }
        (b.finish(), splitmix(&mut state))
    })
}

/// A random latency assignment over the loads of `ddg`: each load gets
/// a class drawn from `state`, or (one draw in five) no entry, which
/// falls back to its base latency.
fn random_latencies(machine: &MachineConfig, ddg: &Ddg, state: &mut u64) -> NodeMap<u32> {
    let mut lat = NodeMap::new();
    for l in ddg.loads() {
        let pick = (splitmix(state) % 5) as usize;
        if let Some(&class) = CLASSES.get(pick) {
            lat.insert(l, machine.latency_of(class));
        }
    }
    lat
}

/// The scheduler's priority order, computed from scratch on the graph:
/// heights by a reverse topological walk over zero-distance non-self
/// edges, then a topological walk whose ready set is a max-heap on
/// `(height, Reverse(node))`.
fn reference_priority_order(ddg: &Ddg, load_lat: &NodeMap<u32>) -> Vec<NodeId> {
    let n = ddg.node_count();
    let orders = |d: &distvliw::ir::Dep| d.distance == 0 && d.src != d.dst;
    let mut indeg = vec![0u32; n];
    let mut outdeg = vec![0u32; n];
    for (_, d) in ddg.deps().filter(|(_, d)| orders(d)) {
        indeg[d.dst.index()] += 1;
        outdeg[d.src.index()] += 1;
    }
    let mut height = vec![0i64; n];
    let mut stack: Vec<usize> = (0..n).filter(|&i| outdeg[i] == 0).collect();
    while let Some(i) = stack.pop() {
        for (_, d) in ddg.in_deps(NodeId(i as u32)).filter(|(_, d)| orders(d)) {
            let j = d.src.index();
            height[j] = height[j].max(height[i] + i64::from(dep_latency(ddg, &d, load_lat)));
            outdeg[j] -= 1;
            if outdeg[j] == 0 {
                stack.push(j);
            }
        }
    }
    let mut ready: BinaryHeap<(i64, std::cmp::Reverse<usize>)> = (0..n)
        .filter(|&i| indeg[i] == 0)
        .map(|i| (height[i], std::cmp::Reverse(i)))
        .collect();
    let mut order = Vec::with_capacity(n);
    while let Some((_, std::cmp::Reverse(i))) = ready.pop() {
        order.push(NodeId(i as u32));
        for (_, d) in ddg.out_deps(NodeId(i as u32)).filter(|(_, d)| orders(d)) {
            let j = d.dst.index();
            indeg[j] -= 1;
            if indeg[j] == 0 {
                ready.push((height[j], std::cmp::Reverse(j)));
            }
        }
    }
    order
}

/// Whether `v` reaches itself over one or more edges of `ddg`.
fn on_cycle_by_search(ddg: &Ddg, v: NodeId) -> bool {
    let mut seen = vec![false; ddg.node_count()];
    let mut stack: Vec<NodeId> = ddg.out_deps(v).map(|(_, d)| d.dst).collect();
    while let Some(w) = stack.pop() {
        if w == v {
            return true;
        }
        if !std::mem::replace(&mut seen[w.index()], true) {
            stack.extend(ddg.out_deps(w).map(|(_, d)| d.dst));
        }
    }
    false
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn precomputed_priority_order_matches_the_reference(case in arb_recurrent_graph()) {
        // One engine answers a run of latency assignments, as a search's
        // trials ask it: every answer equals the from-scratch order.
        let (ddg, mut state) = case;
        let machine = MachineConfig::paper_baseline();
        let mut priority = PriorityOrder::new(&ddg);
        for _ in 0..6 {
            let lat = random_latencies(&machine, &ddg, &mut state);
            let want = reference_priority_order(&ddg, &lat);
            prop_assert_eq!(priority.order(&lat), want.as_slice());
        }
    }

    #[test]
    fn recurrence_membership_matches_reachability(case in arb_recurrent_graph()) {
        let (ddg, _) = case;
        let solver = RecMiiSolver::new(&ddg);
        for v in ddg.node_ids() {
            prop_assert_eq!(solver.on_recurrence(v), on_cycle_by_search(&ddg, v), "{}", v);
        }
    }

    #[test]
    fn raising_loads_on_no_cycle_keeps_the_ii_feasible(case in arb_recurrent_graph()) {
        // At the RecMII of a random assignment, moving any load on no
        // dependence cycle to the slowest class — one at a time and all
        // together — must leave that II feasible.
        let (ddg, mut state) = case;
        let machine = MachineConfig::paper_baseline();
        let slowest = machine.latency_of(LatencyClass::RemoteMiss);
        let mut solver = RecMiiSolver::new(&ddg);
        for _ in 0..3 {
            let lat = random_latencies(&machine, &ddg, &mut state);
            let ii0 = solver.rec_mii(&lat);
            prop_assert!(solver.feasible_at(&lat, ii0));
            let free: Vec<NodeId> = ddg.loads().filter(|&l| !solver.on_recurrence(l)).collect();
            let mut all = lat.clone();
            for &l in &free {
                let mut one = lat.clone();
                one.insert(l, slowest);
                all.insert(l, slowest);
                prop_assert!(solver.feasible_at(&one, ii0), "raising {} alone", l);
            }
            prop_assert!(solver.feasible_at(&all, ii0), "raising {:?} together", free);
        }
    }
}
