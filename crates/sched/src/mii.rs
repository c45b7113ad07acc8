//! Minimum initiation interval: resource-constrained (ResMII) and
//! recurrence-constrained (RecMII) lower bounds.
//!
//! RecMII is a binary search over a Bellman–Ford-style feasibility test.
//! The hot path runs that search once per latency-assignment trial, so
//! [`RecMiiSolver`] extracts the edge list once per graph and reuses one
//! scratch distance buffer across every probe of every search instead of
//! reallocating per probe. It also knows which nodes lie on a dependence
//! cycle: only those nodes' latencies can change whether an II is
//! feasible.

use std::collections::BTreeMap;

use distvliw_arch::MachineConfig;
use distvliw_coherence::SchedConstraints;
use distvliw_ir::{Ddg, Dep, DepKind, FuClass, NodeId, NodeMap};

use crate::dense::{DenseDeps, DepRec};

/// The latency a dependence edge imposes between the issue cycles of its
/// endpoints.
///
/// * Register flow: the producer's latency (loads use their assigned
///   latency from `load_lat`).
/// * MF/MO: one cycle (strict ordering at the memory system).
/// * MA/SYNC: zero cycles (not-before ordering).
#[must_use]
pub fn dep_latency(ddg: &Ddg, dep: &Dep, load_lat: &NodeMap<u32>) -> u32 {
    match dep.kind {
        DepKind::RegFlow => {
            let op = ddg.node(dep.src);
            if op.is_load() {
                load_lat
                    .get(dep.src)
                    .copied()
                    .unwrap_or_else(|| op.kind.base_latency())
            } else {
                op.kind.base_latency()
            }
        }
        _ => dep.kind.min_separation(),
    }
}

/// The resource bound of ops with per-class `counts` on per-class
/// `caps` units: the max over classes of ⌈count / capacity⌉ (at least
/// 1), or `u32::MAX` when a class with ops has no units — an
/// unschedulable mix, reported as an absurd bound so scheduling fails
/// loudly rather than looping forever.
fn class_bound(counts: [u32; 3], caps: [u32; 3]) -> u32 {
    let mut mii = 1;
    for class in FuClass::ALL {
        let i = class.index();
        if counts[i] == 0 {
            continue;
        }
        if caps[i] == 0 {
            return u32::MAX;
        }
        mii = mii.max(counts[i].div_ceil(caps[i]));
    }
    mii
}

/// Functional units of each class in one cluster.
fn cluster_caps(machine: &MachineConfig) -> [u32; 3] {
    [
        machine.fu.integer as u32,
        machine.fu.fp as u32,
        machine.fu.memory as u32,
    ]
}

/// Resource-constrained MII: for each functional-unit class, the ops of
/// that class divided by total machine capacity.
#[must_use]
pub fn res_mii(ddg: &Ddg, machine: &MachineConfig) -> u32 {
    let mut counts = [0u32; 3];
    for (_, op) in ddg.iter() {
        if let Some(class) = op.kind.fu_class() {
            counts[class.index()] += 1;
        }
    }
    let caps = cluster_caps(machine).map(|units| units * machine.n_clusters as u32);
    class_bound(counts, caps)
}

/// Constraint-aware resource MII: the tightest per-cluster bound implied
/// by cluster-assignment constraints.
///
/// Ops of one colocation group all execute in a single cluster, so the
/// group alone needs `ceil(class count / per-cluster units)` II slots of
/// each class; likewise every set of ops pinned to the same cluster.
/// Groups with a pre-decided target cluster pool with the pins of that
/// cluster. The plain [`res_mii`] divides by *machine-wide* capacity and
/// misses all of this; without this bound an II search under MDC/DDGT
/// would find the gap one failed full placement pass per II, although
/// every II below it is provably infeasible.
#[must_use]
pub fn constrained_res_mii(
    ddg: &Ddg,
    machine: &MachineConfig,
    constraints: &SchedConstraints,
) -> u32 {
    if constraints.colocate.is_empty() && constraints.pinned.is_empty() {
        return 1;
    }
    // Per-target-cluster counts (pins + groups with a known target) and
    // per-untargeted-group counts.
    let mut cluster_counts: BTreeMap<usize, [u32; 3]> = BTreeMap::new();
    let mut group_counts: BTreeMap<u32, [u32; 3]> = BTreeMap::new();
    for (n, op) in ddg.iter() {
        let Some(class) = op.kind.fu_class() else {
            continue;
        };
        if let Some(&pin) = constraints.pinned.get(&n) {
            cluster_counts.entry(pin).or_insert([0; 3])[class.index()] += 1;
        } else if let Some(g) = constraints.colocate.get(&n) {
            match constraints.group_target.get(g) {
                Some(&target) => cluster_counts.entry(target).or_insert([0; 3])[class.index()] += 1,
                None => group_counts.entry(*g).or_insert([0; 3])[class.index()] += 1,
            }
        }
    }
    let caps = cluster_caps(machine);
    cluster_counts
        .values()
        .chain(group_counts.values())
        .map(|&counts| class_bound(counts, caps))
        .fold(1, u32::max)
}

/// Reusable RecMII engine for one graph.
///
/// The edge topology is extracted once (shared with the scheduler's
/// crate-private `DenseDeps` snapshot, so the latency-resolution
/// contract lives in a single place: `DepRec::latency`);
/// [`RecMiiSolver::rec_mii`] refreshes per-edge latencies from the
/// current latency assignment and binary-searches feasibility, reusing
/// one scratch distance buffer for every probe.
/// [`RecMiiSolver::on_recurrence`] answers from one strongly connected
/// component pass made at construction.
#[derive(Debug, Clone)]
pub struct RecMiiSolver {
    n: usize,
    edges: Vec<DepRec>,
    /// Whether each node lies on a dependence cycle (self edges and
    /// loop-carried edges included).
    on_cycle: Vec<bool>,
    /// Latency of `edges[i]` under the latency assignment of the most
    /// recent `rec_mii` call.
    latencies: Vec<u32>,
    /// Scratch longest-path estimates, reused across probes.
    dist: Vec<i64>,
}

impl RecMiiSolver {
    /// Extracts the feasibility system of `ddg`.
    #[must_use]
    pub fn new(ddg: &Ddg) -> Self {
        Self::from_dense(&DenseDeps::new(ddg))
    }

    /// Builds the solver from an existing dense snapshot (the scheduler
    /// already has one).
    #[must_use]
    pub(crate) fn from_dense(dense: &DenseDeps) -> Self {
        let n = dense.node_count();
        let edges: Vec<DepRec> = (0..n)
            .flat_map(|i| dense.out_deps(NodeId(i as u32)).iter().copied())
            .collect();
        let latencies = vec![0; edges.len()];
        RecMiiSolver {
            n,
            on_cycle: cycle_members(dense),
            edges,
            latencies,
            dist: vec![0; n],
        }
    }

    /// Whether `node` lies on a dependence cycle of the graph: a self
    /// edge, or a strongly connected component of two or more nodes
    /// over every edge, loop-carried ones included. Every cycle's weight
    /// under a latency assignment depends only on the latencies of such
    /// nodes, so raising a load that lies on no cycle never changes
    /// [`RecMiiSolver::feasible_at`].
    #[must_use]
    pub fn on_recurrence(&self, node: NodeId) -> bool {
        self.on_cycle[node.index()]
    }

    fn refresh_latencies(&mut self, load_lat: &NodeMap<u32>) {
        for (e, lat) in self.edges.iter().zip(&mut self.latencies) {
            *lat = e.latency(load_lat);
        }
    }

    /// Whether the graph admits a legal schedule at initiation interval
    /// `ii` under the latencies of the most recent refresh: no cycle may
    /// have positive total weight, where an edge weighs
    /// `latency − ii × distance`.
    fn feasible(&mut self, ii: u32) -> bool {
        let n = self.n;
        if n == 0 {
            return true;
        }
        self.dist.clear();
        self.dist.resize(n, 0);
        for round in 0..=n {
            let mut changed = false;
            for (e, &lat) in self.edges.iter().zip(&self.latencies) {
                let w = i64::from(lat) - i64::from(ii) * i64::from(e.distance);
                let relaxed = self.dist[e.src.index()] + w;
                if relaxed > self.dist[e.dst.index()] {
                    self.dist[e.dst.index()] = relaxed;
                    changed = true;
                }
            }
            if !changed {
                return true;
            }
            if round == n {
                return false;
            }
        }
        true
    }

    /// Whether the graph admits a legal schedule at `ii` under
    /// `load_lat`. Equivalent to `self.rec_mii(load_lat) <= ii` (by
    /// monotonicity of feasibility) at the cost of a single probe instead
    /// of a binary search — the latency-assignment loop asks exactly this
    /// question once per trial.
    #[must_use]
    pub fn feasible_at(&mut self, load_lat: &NodeMap<u32>, ii: u32) -> bool {
        self.refresh_latencies(load_lat);
        self.feasible(ii)
    }

    /// Recurrence-constrained MII under `load_lat`: the smallest `ii` at
    /// which no dependence cycle is violated (feasibility is monotone in
    /// `ii`), or `u32::MAX` for zero-distance positive cycles.
    #[must_use]
    pub fn rec_mii(&mut self, load_lat: &NodeMap<u32>) -> u32 {
        self.refresh_latencies(load_lat);
        // An upper bound: the latency of the longest *simple* cycle. A
        // simple cycle visits at most min(n, edges) edges, so
        // `min(n, edges) × max edge latency` bounds its latency sum, and
        // any binding latency-to-distance ratio is achieved by a simple
        // cycle. Summing over *all* edges instead would open the binary
        // search at an absurd II on huge graphs.
        let max_lat = self.latencies.iter().copied().max().unwrap_or(0);
        let cycle_edges = self.n.min(self.edges.len()) as i64;
        let hi0: i64 = (cycle_edges * i64::from(max_lat)).max(1);
        let mut lo = 1u32;
        let mut hi = hi0.min(i64::from(u32::MAX - 1)) as u32;
        if !self.feasible(hi) {
            // Zero-distance positive cycle: no II works.
            return u32::MAX;
        }
        while lo < hi {
            let mid = lo + (hi - lo) / 2;
            if self.feasible(mid) {
                hi = mid;
            } else {
                lo = mid + 1;
            }
        }
        lo
    }
}

/// Which nodes lie on a dependence cycle: Tarjan's strongly connected
/// components over every edge of `dense`, iteratively (a recursion per
/// node could overflow the stack on a 4096-op kernel).
fn cycle_members(dense: &DenseDeps) -> Vec<bool> {
    const UNSEEN: u32 = u32::MAX;
    let n = dense.node_count();
    let mut on_cycle = vec![false; n];
    let mut index = vec![UNSEEN; n];
    let mut low = vec![0u32; n];
    let mut on_stack = vec![false; n];
    let mut stack: Vec<usize> = Vec::new();
    // DFS frames: a node and the position of its next out-edge.
    let mut frames: Vec<(usize, usize)> = Vec::new();
    let mut next = 0u32;
    for root in 0..n {
        if index[root] != UNSEEN {
            continue;
        }
        let mut open = Some(root);
        loop {
            if let Some(v) = open.take() {
                index[v] = next;
                low[v] = next;
                next += 1;
                stack.push(v);
                on_stack[v] = true;
                frames.push((v, 0));
            }
            let Some(&mut (v, ref mut pos)) = frames.last_mut() else {
                break;
            };
            if let Some(d) = dense.out_deps(NodeId(v as u32)).get(*pos) {
                *pos += 1;
                let w = d.dst.index();
                if w == v {
                    on_cycle[v] = true;
                } else if index[w] == UNSEEN {
                    open = Some(w);
                } else if on_stack[w] {
                    low[v] = low[v].min(index[w]);
                }
                continue;
            }
            frames.pop();
            if let Some(&(u, _)) = frames.last() {
                low[u] = low[u].min(low[v]);
            }
            if low[v] == index[v] {
                let root_at = stack
                    .iter()
                    .rposition(|&w| w == v)
                    .expect("a component root is on the stack");
                let multi = stack.len() - root_at > 1;
                for w in stack.drain(root_at..) {
                    on_stack[w] = false;
                    on_cycle[w] |= multi;
                }
            }
        }
    }
    on_cycle
}

/// Recurrence-constrained MII (one-shot convenience over
/// [`RecMiiSolver`]).
#[must_use]
pub fn rec_mii(ddg: &Ddg, load_lat: &NodeMap<u32>) -> u32 {
    RecMiiSolver::new(ddg).rec_mii(load_lat)
}

/// `max(ResMII, RecMII)`.
#[must_use]
pub fn mii(ddg: &Ddg, machine: &MachineConfig, load_lat: &NodeMap<u32>) -> u32 {
    res_mii(ddg, machine).max(rec_mii(ddg, load_lat))
}

#[cfg(test)]
mod tests {
    use super::*;
    use distvliw_ir::{DdgBuilder, OpKind, Width};

    #[test]
    fn res_mii_counts_fu_pressure() {
        let mut b = DdgBuilder::new();
        // 9 loads on a 4-cluster machine with 1 mem FU each → ceil(9/4) = 3.
        for _ in 0..9 {
            b.load(Width::W4);
        }
        let g = b.finish();
        assert_eq!(res_mii(&g, &MachineConfig::paper_baseline()), 3);
    }

    #[test]
    fn res_mii_is_one_for_small_graphs() {
        let mut b = DdgBuilder::new();
        let l = b.load(Width::W4);
        let _ = b.op(OpKind::IntAlu, &[l]);
        let g = b.finish();
        assert_eq!(res_mii(&g, &MachineConfig::paper_baseline()), 1);
    }

    #[test]
    fn rec_mii_of_simple_recurrence() {
        // acc = acc + x, loop-carried at distance 1 with 1-cycle add:
        // cycle weight 1 − ii ≤ 0 → RecMII = 1. With a 2-cycle fp add → 2.
        let mut b = DdgBuilder::new();
        let acc = b.op(OpKind::FpAlu, &[]);
        b.recurrence(acc, acc, 1);
        let g = b.finish();
        assert_eq!(rec_mii(&g, &NodeMap::new()), 2);
    }

    #[test]
    fn rec_mii_divides_by_distance() {
        // A 2-op cycle with total latency 4 spread over distance 2 → II 2.
        let mut b = DdgBuilder::new();
        let a = b.op(OpKind::FpAlu, &[]);
        let c = b.op(OpKind::FpAlu, &[a]);
        b.recurrence(c, a, 2);
        let g = b.finish();
        assert_eq!(rec_mii(&g, &NodeMap::new()), 2);
    }

    #[test]
    fn load_latency_raises_rec_mii() {
        // load -> add -> store -> (MF d=1) -> load.
        let mut b = DdgBuilder::new();
        let l = b.load(Width::W4);
        let a = b.op(OpKind::IntAlu, &[l]);
        let s = b.store(Width::W4, &[a]);
        b.dep(s, l, DepKind::MemFlow, 1);
        let g = b.finish();
        // Optimistic (1-cycle load): cycle = 1+1+1 = 3 over distance 1.
        assert_eq!(rec_mii(&g, &NodeMap::new()), 3);
        // Remote-miss load (15 cycles): 15+1+1 = 17.
        let mut lat = NodeMap::new();
        lat.insert(l, 15);
        assert_eq!(rec_mii(&g, &lat), 17);
    }

    #[test]
    fn feasibility_is_monotone() {
        let mut b = DdgBuilder::new();
        let l = b.load(Width::W4);
        let a = b.op(OpKind::IntAlu, &[l]);
        let s = b.store(Width::W4, &[a]);
        b.dep(s, l, DepKind::MemFlow, 1);
        let g = b.finish();
        let lat = NodeMap::new();
        let mut solver = RecMiiSolver::new(&g);
        let r = solver.rec_mii(&lat);
        assert!(!solver.feasible_at(&lat, r - 1));
        assert!(solver.feasible_at(&lat, r));
        assert!(solver.feasible_at(&lat, r + 5));
    }

    #[test]
    fn solver_reuse_matches_one_shot() {
        // The same solver answering under changing latency assignments
        // must agree with fresh one-shot computations.
        let mut b = DdgBuilder::new();
        let l = b.load(Width::W4);
        let a = b.op(OpKind::IntAlu, &[l]);
        let s = b.store(Width::W4, &[a]);
        b.dep(s, l, DepKind::MemFlow, 1);
        let g = b.finish();
        let mut solver = RecMiiSolver::new(&g);
        for load_latency in [1u32, 5, 10, 15, 2] {
            let mut lat = NodeMap::new();
            lat.insert(l, load_latency);
            assert_eq!(
                solver.rec_mii(&lat),
                rec_mii(&g, &lat),
                "latency {load_latency}"
            );
        }
    }

    #[test]
    fn acyclic_graph_has_rec_mii_one() {
        let mut b = DdgBuilder::new();
        let l = b.load(Width::W8);
        let m = b.op(OpKind::IntMul, &[l]);
        let _ = b.store(Width::W8, &[m]);
        let g = b.finish();
        assert_eq!(rec_mii(&g, &NodeMap::new()), 1);
    }

    #[test]
    fn mii_takes_max_of_bounds() {
        let mut b = DdgBuilder::new();
        // Resource pressure: 9 int ops → ResMII 3; plus a latency-4 1-dist
        // recurrence → RecMII 4.
        let first = b.op(OpKind::FpMul, &[]);
        b.recurrence(first, first, 1);
        for _ in 0..9 {
            b.op(OpKind::IntAlu, &[]);
        }
        let g = b.finish();
        let machine = MachineConfig::paper_baseline();
        assert_eq!(res_mii(&g, &machine), 3);
        assert_eq!(rec_mii(&g, &NodeMap::new()), 4);
        assert_eq!(mii(&g, &machine, &NodeMap::new()), 4);
    }

    #[test]
    fn constrained_res_mii_counts_colocated_chains() {
        // 6 memory ops colocated in one group on the 4-cluster paper
        // machine: global ResMII is ceil(6/4) = 2, but one cluster must
        // serialize all 6 → constrained bound 6.
        let mut b = DdgBuilder::new();
        let nodes: Vec<_> = (0..6).map(|_| b.load(Width::W4)).collect();
        let g = b.finish();
        let machine = MachineConfig::paper_baseline();
        let mut c = SchedConstraints::none();
        for &n in &nodes {
            c.colocate.insert(n, 0);
        }
        assert_eq!(res_mii(&g, &machine), 2);
        assert_eq!(constrained_res_mii(&g, &machine, &c), 6);
        // An explicit target does not change the bound…
        c.group_target.insert(0, 1);
        assert_eq!(constrained_res_mii(&g, &machine, &c), 6);
        // …but pins sharing the target cluster pool with it.
        let mut b = DdgBuilder::new();
        let chain: Vec<_> = (0..3).map(|_| b.load(Width::W4)).collect();
        let pinned = b.load(Width::W4);
        let g = b.finish();
        let mut c = SchedConstraints::none();
        for &n in &chain {
            c.colocate.insert(n, 0);
        }
        c.group_target.insert(0, 2);
        c.pinned.insert(pinned, 2);
        assert_eq!(constrained_res_mii(&g, &machine, &c), 4);
        // A pin in another cluster does not pool.
        let mut c2 = c.clone();
        *c2.pinned.get_mut(&pinned).unwrap() = 3;
        assert_eq!(constrained_res_mii(&g, &machine, &c2), 3);
    }

    #[test]
    fn constrained_res_mii_is_one_without_constraints() {
        let mut b = DdgBuilder::new();
        for _ in 0..9 {
            b.load(Width::W4);
        }
        let g = b.finish();
        assert_eq!(
            constrained_res_mii(
                &g,
                &MachineConfig::paper_baseline(),
                &SchedConstraints::none()
            ),
            1
        );
    }

    #[test]
    fn rec_mii_upper_bound_is_cycle_scoped() {
        // A wide acyclic graph with many high-latency edges plus one
        // small recurrence: the sum-of-all-latencies bound would open
        // the search absurdly high; the cycle-scoped bound must still
        // give the exact RecMII.
        let mut b = DdgBuilder::new();
        let acc = b.op(OpKind::FpMul, &[]); // 4-cycle producer
        b.recurrence(acc, acc, 1);
        for _ in 0..50 {
            let l = b.load(Width::W8);
            let _ = b.op(OpKind::FpMul, &[l]);
        }
        let g = b.finish();
        let mut lat = NodeMap::new();
        for l in g.loads() {
            lat.insert(l, 15);
        }
        assert_eq!(rec_mii(&g, &lat), 4);
    }

    #[test]
    fn rec_mii_clamped_bound_terminates_on_huge_latencies() {
        // A register-flow cycle of 64 loads at latency u32::MAX/2 each:
        // the cycle needs more than any u32 II, the bound clamps to
        // u32::MAX − 1, and the clamped probe must terminate and report
        // the cycle as infeasible (u32::MAX) rather than spin.
        let cycle = |latency: u32| {
            let mut b = DdgBuilder::new();
            let loads: Vec<NodeId> = (0..64).map(|_| b.load(Width::W4)).collect();
            for w in loads.windows(2) {
                b.recurrence(w[0], w[1], 0);
            }
            b.recurrence(loads[63], loads[0], 1);
            let g = b.finish();
            let mut lat = NodeMap::new();
            for &l in &loads {
                lat.insert(l, latency);
            }
            rec_mii(&g, &lat)
        };
        assert_eq!(cycle(u32::MAX / 2), u32::MAX);
        // A cycle that fits a u32 II still converges exactly:
        // 64 × 1000 over distance 1.
        assert_eq!(cycle(1000), 64_000);
    }

    #[test]
    fn sync_edges_cost_zero_latency() {
        let mut b = DdgBuilder::new();
        let c = b.op(OpKind::IntAlu, &[]);
        let s = b.store(Width::W4, &[]);
        b.dep(c, s, DepKind::Sync, 0);
        let g = b.finish();
        let d = g.deps().next().unwrap().1;
        assert_eq!(dep_latency(&g, &d, &NodeMap::new()), 0);
    }
}
