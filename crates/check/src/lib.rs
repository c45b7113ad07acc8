//! Independent static verifier for modulo schedules and coherence
//! constraints — a translation-validation pass for the scheduler.
//!
//! The scheduler proves its own legality only operationally: the MRT
//! rejects oversubscribed slots, the ejection journal rolls back bad
//! chains, the pressure gate rejects overfull clusters. This crate
//! re-derives every one of those invariants *from the emitted
//! [`Schedule`] alone* — per-cycle resource occupancy, modulo dependence
//! distances, coherence postconditions and stage-crossing register
//! demand are rebuilt from scratch against the [`MachineConfig`], sharing
//! no code with the placement machinery. A bug in the MRT journal, the
//! eviction rollback or the copy planner therefore cannot hide itself:
//! the checker would have to contain the same bug independently.
//!
//! The exact inequality behind every check is cataloged in
//! `docs/checking.md`; the checker's own soundness is pinned by the
//! mutation-kill matrix in `tests/mutations.rs` (every [`ViolationKind`]
//! has a targeted corruption that only it catches) and a property test
//! that unmutated schedules across 2–16 clusters always verify clean.
//!
//! # Example
//!
//! ```
//! use distvliw_arch::MachineConfig;
//! use distvliw_check::check_schedule;
//! use distvliw_coherence::SchedConstraints;
//! use distvliw_ir::{DdgBuilder, OpKind, PrefMap, Width};
//! use distvliw_sched::{Heuristic, ModuloScheduler};
//!
//! let mut b = DdgBuilder::new();
//! let load = b.load(Width::W4);
//! let add = b.op(OpKind::IntAlu, &[load]);
//! let _store = b.store(Width::W4, &[add]);
//! let ddg = b.finish();
//!
//! let machine = MachineConfig::paper_baseline();
//! let constraints = SchedConstraints::none();
//! let schedule = ModuloScheduler::new(&machine)
//!     .schedule(&ddg, &constraints, &PrefMap::new(), Heuristic::MinComs)?;
//! let report = check_schedule(&ddg, &machine, &constraints, Heuristic::MinComs, &schedule);
//! assert!(report.is_clean(), "{report}");
//! # Ok::<(), distvliw_sched::ScheduleError>(())
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]

use std::collections::BTreeMap;
use std::fmt;

use distvliw_arch::MachineConfig;
use distvliw_coherence::SchedConstraints;
use distvliw_ir::{Ddg, DepKind, FuClass, NodeId};
use distvliw_sched::{Heuristic, Schedule};

/// What kind of invariant a [`Violation`] breaks.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum ViolationKind {
    /// A DDG node has no placement in the schedule (or the schedule
    /// places a node the DDG does not contain).
    MissingNode,
    /// An operation or copy names a cluster outside the machine, or a
    /// copy's source cluster disagrees with its producer's placement.
    BadCluster,
    /// More operations of one functional-unit class share a
    /// `(cluster, cycle mod II)` slot than the cluster has units.
    FuOverflow,
    /// More register-bus transfers occupy a modulo cycle than the
    /// machine has buses (each transfer holds a bus for the bus
    /// latency).
    BusOverflow,
    /// A dependence edge's modulo separation is below its latency:
    /// `slot(succ) + II·dist − slot(pred) < latency`.
    DepViolation,
    /// A register-flow edge crosses clusters but no copy moves the
    /// producer's value to the consumer's cluster.
    MissingCopy,
    /// A DDGT synchronization edge is violated: the replicated store
    /// starts before the consumer it synchronizes with.
    SyncViolation,
    /// An MDC colocation group is split across clusters.
    ColocationSplit,
    /// A PrefClus colocation group landed off its precomputed target
    /// cluster.
    GroupTargetMissed,
    /// A DDGT-pinned node is off its pinned cluster (PrefClus), or the
    /// pin-to-cluster assignment is not a consistent relabeling
    /// (MinComs, where the post-pass may permute clusters).
    PinViolation,
    /// The schedule's II is below the constraint-mandated minimum.
    MinIiViolated,
    /// A cluster's stage-crossing register demand exceeds
    /// `regs_per_cluster`.
    PressureExceeded,
    /// The recorded span does not equal the recomputed flat schedule
    /// length.
    SpanMismatch,
}

impl ViolationKind {
    /// Every kind, in a fixed order (for per-kind summaries).
    pub const ALL: [ViolationKind; 13] = [
        ViolationKind::MissingNode,
        ViolationKind::BadCluster,
        ViolationKind::FuOverflow,
        ViolationKind::BusOverflow,
        ViolationKind::DepViolation,
        ViolationKind::MissingCopy,
        ViolationKind::SyncViolation,
        ViolationKind::ColocationSplit,
        ViolationKind::GroupTargetMissed,
        ViolationKind::PinViolation,
        ViolationKind::MinIiViolated,
        ViolationKind::PressureExceeded,
        ViolationKind::SpanMismatch,
    ];

    /// Stable kebab-case name (used by [`CheckReport::summary`] and
    /// every violation line, so a failing golden test names the kind).
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            ViolationKind::MissingNode => "missing-node",
            ViolationKind::BadCluster => "bad-cluster",
            ViolationKind::FuOverflow => "fu-overflow",
            ViolationKind::BusOverflow => "bus-overflow",
            ViolationKind::DepViolation => "dep-violation",
            ViolationKind::MissingCopy => "missing-copy",
            ViolationKind::SyncViolation => "sync-violation",
            ViolationKind::ColocationSplit => "colocation-split",
            ViolationKind::GroupTargetMissed => "group-target-missed",
            ViolationKind::PinViolation => "pin-violation",
            ViolationKind::MinIiViolated => "min-ii-violated",
            ViolationKind::PressureExceeded => "pressure-exceeded",
            ViolationKind::SpanMismatch => "span-mismatch",
        }
    }
}

impl fmt::Display for ViolationKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// One broken invariant, with enough context to debug it without a
/// rerun: the nodes involved, where in the schedule it happened, and
/// the arithmetic that failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    /// The invariant that broke.
    pub kind: ViolationKind,
    /// The DDG nodes involved.
    pub nodes: Vec<NodeId>,
    /// The cluster where it happened, when cluster-specific.
    pub cluster: Option<usize>,
    /// The cycle (or modulo slot, for resource checks) involved.
    pub cycle: Option<u32>,
    /// The failing arithmetic, spelled out.
    pub detail: String,
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}: {}", self.kind, self.detail)?;
        if !self.nodes.is_empty() {
            write!(f, " [")?;
            for (i, n) in self.nodes.iter().enumerate() {
                if i > 0 {
                    write!(f, ", ")?;
                }
                write!(f, "{n}")?;
            }
            write!(f, "]")?;
        }
        if let Some(c) = self.cluster {
            write!(f, " (cluster {c})")?;
        }
        if let Some(cy) = self.cycle {
            write!(f, " (cycle {cy})")?;
        }
        Ok(())
    }
}

/// The outcome of one [`check_schedule`] call: every violation found,
/// in check order (structural, resources, dependences, coherence,
/// pressure, span).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CheckReport {
    /// Every violation found.
    pub violations: Vec<Violation>,
}

impl CheckReport {
    /// Whether the schedule passed every check.
    #[must_use]
    pub fn is_clean(&self) -> bool {
        self.violations.is_empty()
    }

    /// Number of violations.
    #[must_use]
    pub fn len(&self) -> usize {
        self.violations.len()
    }

    /// Whether the report is empty (alias of [`CheckReport::is_clean`]).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.violations.is_empty()
    }

    /// Violation count per kind (kinds with zero hits are omitted).
    #[must_use]
    pub fn counts(&self) -> BTreeMap<ViolationKind, usize> {
        let mut out = BTreeMap::new();
        for v in &self.violations {
            *out.entry(v.kind).or_insert(0) += 1;
        }
        out
    }

    /// One-line per-kind summary, e.g. `clean` or
    /// `2 violations: dep-violation=1 fu-overflow=1`.
    #[must_use]
    pub fn summary(&self) -> String {
        if self.is_clean() {
            return "clean".to_string();
        }
        let mut s = format!("{} violations:", self.len());
        for (kind, count) in self.counts() {
            s.push_str(&format!(" {kind}={count}"));
        }
        s
    }

    fn push(
        &mut self,
        kind: ViolationKind,
        nodes: Vec<NodeId>,
        cluster: Option<usize>,
        cycle: Option<u32>,
        detail: String,
    ) {
        self.violations.push(Violation {
            kind,
            nodes,
            cluster,
            cycle,
            detail,
        });
    }
}

impl fmt::Display for CheckReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "{}", self.summary())?;
        for v in &self.violations {
            writeln!(f, "  {v}")?;
        }
        Ok(())
    }
}

/// Cycles after issue at which a node's result register is written:
/// loads use the latency class the schedule recorded for them (falling
/// back to the optimistic base latency when none was recorded),
/// everything else its architectural base latency.
fn producer_latency(ddg: &Ddg, machine: &MachineConfig, schedule: &Schedule, n: NodeId) -> i64 {
    let op = ddg.node(n);
    let lat = if op.is_load() {
        schedule
            .ops
            .get(&n)
            .and_then(|o| o.assumed_class)
            .map_or_else(|| op.kind.base_latency(), |c| machine.latency_of(c))
    } else {
        op.kind.base_latency()
    };
    i64::from(lat)
}

/// Whether `n` is a node of `ddg` with a placement naming a real cluster
/// — the precondition the non-structural passes require (the structural
/// pass has already reported the violation otherwise).
fn well_placed(ddg: &Ddg, machine: &MachineConfig, schedule: &Schedule, n: NodeId) -> bool {
    n.index() < ddg.node_count()
        && schedule
            .ops
            .get(&n)
            .is_some_and(|op| op.cluster < machine.n_clusters)
}

/// Statically verifies `schedule` against the DDG it was built from,
/// the machine's resource limits and the coherence constraints — from
/// first principles, sharing no code with the scheduler's MRT, ejection
/// or pressure machinery.
///
/// Six passes run in order: structural well-formedness (every node
/// placed, clusters in range, copies consistent with their producers),
/// resource legality (per-cycle FU and register-bus occupancy rebuilt
/// modulo II), dependence legality (every DDG edge satisfies
/// `slot(succ) + II·dist − slot(pred) ≥ latency`, with copies checked
/// for cross-cluster register flow), coherence legality (colocation
/// groups, group targets, DDGT pins — up to a consistent cluster
/// relabeling under [`Heuristic::MinComs`], whose post-pass permutes
/// clusters — and the mandated minimum II), pressure legality (an
/// independent stage-crossing live-range recomputation bounded by
/// `regs_per_cluster`), and span consistency.
///
/// `heuristic` must be the one the schedule was produced under; it
/// decides whether pins and group targets are checked literally
/// (PrefClus) or up to relabeling (MinComs).
#[must_use]
pub fn check_schedule(
    ddg: &Ddg,
    machine: &MachineConfig,
    constraints: &SchedConstraints,
    heuristic: Heuristic,
    schedule: &Schedule,
) -> CheckReport {
    let mut report = CheckReport::default();
    check_structural(ddg, machine, schedule, &mut report);
    if schedule.ii == 0 {
        // Everything below divides by the II; a zero II is already
        // reported (any constraint mandates at least 1).
        return report;
    }
    check_resources(ddg, machine, schedule, &mut report);
    check_dependences(ddg, machine, schedule, &mut report);
    check_coherence(ddg, machine, constraints, heuristic, schedule, &mut report);
    check_pressure(ddg, machine, schedule, &mut report);
    check_span(machine, schedule, &mut report);
    report
}

/// Structural pass: every DDG node placed exactly once, all clusters in
/// range, every copy launched from its producer's cluster no earlier
/// than the value is ready.
fn check_structural(
    ddg: &Ddg,
    machine: &MachineConfig,
    schedule: &Schedule,
    report: &mut CheckReport,
) {
    let n_clusters = machine.n_clusters;
    if schedule.n_clusters != n_clusters {
        report.push(
            ViolationKind::BadCluster,
            vec![],
            None,
            None,
            format!(
                "schedule targets {} clusters, machine has {n_clusters}",
                schedule.n_clusters
            ),
        );
    }
    if schedule.ii == 0 {
        report.push(
            ViolationKind::MinIiViolated,
            vec![],
            None,
            None,
            "II is 0; every schedule needs II ≥ 1".to_string(),
        );
    }
    for n in ddg.node_ids() {
        if !schedule.ops.contains_key(&n) {
            report.push(
                ViolationKind::MissingNode,
                vec![n],
                None,
                None,
                format!("DDG node {n} ({}) has no placement", ddg.node(n).kind),
            );
        }
    }
    for (&n, op) in &schedule.ops {
        if n.index() >= ddg.node_count() {
            report.push(
                ViolationKind::MissingNode,
                vec![n],
                Some(op.cluster),
                Some(op.start),
                format!("schedule places {n}, which is not a DDG node"),
            );
            continue;
        }
        if op.node != n {
            report.push(
                ViolationKind::MissingNode,
                vec![n, op.node],
                Some(op.cluster),
                Some(op.start),
                format!("placement keyed {n} records node {}", op.node),
            );
        }
        if op.cluster >= n_clusters {
            report.push(
                ViolationKind::BadCluster,
                vec![n],
                Some(op.cluster),
                Some(op.start),
                format!(
                    "cluster {} out of range (machine has {n_clusters})",
                    op.cluster
                ),
            );
        }
    }
    for cp in &schedule.copies {
        if cp.from_cluster >= n_clusters || cp.to_cluster >= n_clusters {
            report.push(
                ViolationKind::BadCluster,
                vec![cp.producer],
                None,
                Some(cp.start),
                format!(
                    "copy {} → {} out of range (machine has {n_clusters})",
                    cp.from_cluster, cp.to_cluster
                ),
            );
            continue;
        }
        if cp.from_cluster == cp.to_cluster {
            report.push(
                ViolationKind::BadCluster,
                vec![cp.producer],
                Some(cp.from_cluster),
                Some(cp.start),
                format!(
                    "copy of {} stays inside cluster {}",
                    cp.producer, cp.from_cluster
                ),
            );
        }
        let Some(pop) = (cp.producer.index() < ddg.node_count())
            .then(|| schedule.ops.get(&cp.producer))
            .flatten()
        else {
            report.push(
                ViolationKind::MissingNode,
                vec![cp.producer],
                Some(cp.from_cluster),
                Some(cp.start),
                format!("copy transfers {}, which has no placement", cp.producer),
            );
            continue;
        };
        if pop.cluster != cp.from_cluster {
            report.push(
                ViolationKind::BadCluster,
                vec![cp.producer],
                Some(cp.from_cluster),
                Some(cp.start),
                format!(
                    "copy departs cluster {} but {} executes in cluster {}",
                    cp.from_cluster, cp.producer, pop.cluster
                ),
            );
        }
        let ready = i64::from(pop.start) + producer_latency(ddg, machine, schedule, cp.producer);
        if i64::from(cp.start) < ready {
            report.push(
                ViolationKind::DepViolation,
                vec![cp.producer],
                Some(cp.from_cluster),
                Some(cp.start),
                format!(
                    "copy of {} launches at {} before the value is ready at {ready}",
                    cp.producer, cp.start
                ),
            );
        }
    }
}

/// Resource pass: per-cycle functional-unit occupancy per
/// `(cluster, class, cycle mod II)` against the machine's unit mix, and
/// machine-global register-bus occupancy per modulo cycle (one transfer
/// holds a bus for `reg_buses.latency` consecutive modulo cycles, the
/// same cycle twice when the latency wraps the II).
fn check_resources(
    ddg: &Ddg,
    machine: &MachineConfig,
    schedule: &Schedule,
    report: &mut CheckReport,
) {
    let ii = schedule.ii;
    let caps = [machine.fu.integer, machine.fu.fp, machine.fu.memory];
    let mut fu: BTreeMap<(usize, usize, u32), Vec<NodeId>> = BTreeMap::new();
    for (&n, op) in &schedule.ops {
        if !well_placed(ddg, machine, schedule, n) {
            continue;
        }
        if let Some(class) = ddg.node(n).kind.fu_class() {
            fu.entry((op.cluster, class.index(), op.start % ii))
                .or_default()
                .push(n);
        }
    }
    for ((cluster, class_idx, slot), nodes) in fu {
        let cap = caps[class_idx];
        if nodes.len() > cap {
            report.push(
                ViolationKind::FuOverflow,
                nodes.clone(),
                Some(cluster),
                Some(slot),
                format!(
                    "{} {} ops share cluster {cluster} modulo slot {slot} (cap {cap})",
                    nodes.len(),
                    FuClass::ALL[class_idx],
                ),
            );
        }
    }

    let bus_lat = machine.reg_buses.latency;
    let bus_cap = machine.reg_buses.count;
    let mut bus: BTreeMap<u32, Vec<NodeId>> = BTreeMap::new();
    for cp in &schedule.copies {
        for t in 0..bus_lat {
            bus.entry((cp.start + t) % ii)
                .or_default()
                .push(cp.producer);
        }
    }
    for (slot, producers) in bus {
        if producers.len() > bus_cap {
            report.push(
                ViolationKind::BusOverflow,
                producers.clone(),
                None,
                Some(slot),
                format!(
                    "{} bus transfers occupy modulo slot {slot} (cap {bus_cap}, \
                     each transfer holds a bus for {bus_lat} cycles)",
                    producers.len(),
                ),
            );
        }
    }
}

/// Dependence pass: every DDG edge satisfies
/// `slot(succ) + II·dist − slot(pred) ≥ latency`, where the latency is
/// the producer's (class-resolved) latency for register flow and the
/// kind's minimum separation otherwise. Cross-cluster register flow
/// must route through a copy that launches after the value is ready and
/// arrives before the consumer reads.
fn check_dependences(
    ddg: &Ddg,
    machine: &MachineConfig,
    schedule: &Schedule,
    report: &mut CheckReport,
) {
    let ii = i64::from(schedule.ii);
    let bus_lat = i64::from(machine.reg_buses.latency);
    for (_, d) in ddg.deps() {
        if !well_placed(ddg, machine, schedule, d.src)
            || !well_placed(ddg, machine, schedule, d.dst)
        {
            continue; // already reported structurally
        }
        let sop = schedule.ops[&d.src];
        let dop = schedule.ops[&d.dst];
        let dist = i64::from(d.distance);
        if d.kind == DepKind::RegFlow {
            let lat = producer_latency(ddg, machine, schedule, d.src);
            if d.src == d.dst {
                // Self recurrence: the value written `lat` after issue is
                // read `II·dist` later by the next iteration's instance.
                if ii * dist < lat {
                    report.push(
                        ViolationKind::DepViolation,
                        vec![d.src],
                        Some(sop.cluster),
                        Some(sop.start),
                        format!(
                            "self edge {d}: II·dist = {ii}·{dist} = {} < latency {lat}",
                            ii * dist
                        ),
                    );
                }
            } else if sop.cluster == dop.cluster {
                let reads = i64::from(dop.start) + ii * dist;
                let ready = i64::from(sop.start) + lat;
                if reads < ready {
                    report.push(
                        ViolationKind::DepViolation,
                        vec![d.src, d.dst],
                        Some(sop.cluster),
                        Some(dop.start),
                        format!(
                            "{d}: consumer reads at {} + {ii}·{dist} = {reads}, \
                             value ready at {} + {lat} = {ready}",
                            dop.start, sop.start
                        ),
                    );
                }
            } else {
                match schedule.copy_to(d.src, dop.cluster) {
                    None => report.push(
                        ViolationKind::MissingCopy,
                        vec![d.src, d.dst],
                        Some(dop.cluster),
                        Some(dop.start),
                        format!(
                            "{d}: {} executes in cluster {} but no copy moves {}'s \
                             value there from cluster {}",
                            d.dst, dop.cluster, d.src, sop.cluster
                        ),
                    ),
                    Some(cp) => {
                        // Launch-after-ready is checked structurally per
                        // copy; here the arrival must beat the read.
                        let reads = i64::from(dop.start) + ii * dist;
                        let arrives = i64::from(cp.start) + bus_lat;
                        if reads < arrives {
                            report.push(
                                ViolationKind::DepViolation,
                                vec![d.src, d.dst],
                                Some(dop.cluster),
                                Some(dop.start),
                                format!(
                                    "{d}: consumer reads at {} + {ii}·{dist} = {reads}, \
                                     copy arrives at {} + {bus_lat} = {arrives}",
                                    dop.start, cp.start
                                ),
                            );
                        }
                    }
                }
            }
        } else {
            let sep = i64::from(d.kind.min_separation());
            let gap = if d.src == d.dst {
                ii * dist
            } else {
                i64::from(dop.start) + ii * dist - i64::from(sop.start)
            };
            if gap < sep {
                let kind = if d.kind == DepKind::Sync {
                    ViolationKind::SyncViolation
                } else {
                    ViolationKind::DepViolation
                };
                report.push(
                    kind,
                    vec![d.src, d.dst],
                    Some(dop.cluster),
                    Some(dop.start),
                    format!(
                        "{d}: separation {} + {ii}·{dist} − {} = {gap} < {sep}",
                        dop.start, sop.start
                    ),
                );
            }
        }
    }
}

/// Coherence pass: MDC colocation groups on one cluster (and, under
/// PrefClus, on their precomputed target), DDGT pins honored — literally
/// under PrefClus, up to a consistent injective relabeling under
/// MinComs (whose post-pass permutes physical clusters) — and the
/// mandated minimum II.
fn check_coherence(
    ddg: &Ddg,
    machine: &MachineConfig,
    constraints: &SchedConstraints,
    heuristic: Heuristic,
    schedule: &Schedule,
    report: &mut CheckReport,
) {
    if schedule.ii < constraints.min_ii {
        report.push(
            ViolationKind::MinIiViolated,
            vec![],
            None,
            None,
            format!(
                "II {} is below the mandated minimum {}",
                schedule.ii, constraints.min_ii
            ),
        );
    }
    for (group, members) in constraints.colocation_groups() {
        let placed: Vec<(NodeId, usize)> = members
            .iter()
            .filter(|&&n| well_placed(ddg, machine, schedule, n))
            .map(|&n| (n, schedule.ops[&n].cluster))
            .collect();
        let mut clusters: Vec<usize> = placed.iter().map(|&(_, c)| c).collect();
        clusters.sort_unstable();
        clusters.dedup();
        if clusters.len() > 1 {
            report.push(
                ViolationKind::ColocationSplit,
                members.clone(),
                None,
                None,
                format!("colocation group {group} is split across clusters {clusters:?}"),
            );
        }
        if let Some(&target) = constraints.group_target.get(&group) {
            // Group targets exist only under PrefClus (MinComs leaves the
            // choice to the scheduler), where clusters are physical.
            if heuristic == Heuristic::PrefClus {
                let off: Vec<NodeId> = placed
                    .iter()
                    .filter(|&&(_, c)| c != target)
                    .map(|&(n, _)| n)
                    .collect();
                if !off.is_empty() {
                    report.push(
                        ViolationKind::GroupTargetMissed,
                        off,
                        Some(target),
                        None,
                        format!(
                            "colocation group {group} landed on clusters {clusters:?}, \
                             target is {target}"
                        ),
                    );
                }
            }
        }
    }

    let pins: Vec<(NodeId, usize)> = constraints
        .pinned
        .iter()
        .filter(|&(&n, _)| well_placed(ddg, machine, schedule, n))
        .map(|(&n, &pin)| (n, pin))
        .collect();
    match heuristic {
        Heuristic::PrefClus => {
            for &(n, pin) in &pins {
                let c = schedule.ops[&n].cluster;
                if c != pin {
                    report.push(
                        ViolationKind::PinViolation,
                        vec![n],
                        Some(c),
                        None,
                        format!("{n} is pinned to cluster {pin} but executes in cluster {c}"),
                    );
                }
            }
        }
        Heuristic::MinComs => {
            // The MinComs post-pass relabels clusters through a
            // permutation, so pins hold up to a consistent injective
            // mapping: every node pinned to `k` on one cluster, distinct
            // pins on distinct clusters.
            let mut image: BTreeMap<usize, (NodeId, usize)> = BTreeMap::new();
            for &(n, pin) in &pins {
                let c = schedule.ops[&n].cluster;
                match image.get(&pin) {
                    None => {
                        image.insert(pin, (n, c));
                    }
                    Some(&(first, c0)) if c0 != c => report.push(
                        ViolationKind::PinViolation,
                        vec![first, n],
                        Some(c),
                        None,
                        format!(
                            "pin {pin} maps to cluster {c0} (via {first}) and \
                             cluster {c} (via {n}): not a relabeling"
                        ),
                    ),
                    Some(_) => {}
                }
            }
            let mut by_cluster: BTreeMap<usize, Vec<usize>> = BTreeMap::new();
            for (&pin, &(_, c)) in &image {
                by_cluster.entry(c).or_default().push(pin);
            }
            for (c, pins_here) in by_cluster {
                if pins_here.len() > 1 {
                    report.push(
                        ViolationKind::PinViolation,
                        pins_here.iter().map(|p| image[p].0).collect(),
                        Some(c),
                        None,
                        format!(
                            "pins {pins_here:?} all map to cluster {c}: the \
                             relabeling is not injective"
                        ),
                    );
                }
            }
        }
    }
}

/// Pressure pass: independent stage-crossing live-range recomputation.
/// A value is live in its producer's cluster from definition to its
/// last local read or outgoing copy launch, and in every copied-to
/// cluster from copy arrival to the last read there; a range spanning
/// `s` cycles costs `⌊s / II⌋` registers, and a cluster's total must
/// not exceed `regs_per_cluster`.
fn check_pressure(
    ddg: &Ddg,
    machine: &MachineConfig,
    schedule: &Schedule,
    report: &mut CheckReport,
) {
    let ii = i64::from(schedule.ii);
    let bus_lat = i64::from(machine.reg_buses.latency);
    let copy_start = |p: NodeId, cluster: usize| -> Option<u32> {
        schedule.copy_to(p, cluster).map(|cp| cp.start)
    };
    let mut demand = vec![0u64; machine.n_clusters];
    for (&p, pop) in &schedule.ops {
        if !well_placed(ddg, machine, schedule, p) {
            continue;
        }
        if !ddg.out_deps(p).any(|(_, d)| d.kind == DepKind::RegFlow) {
            continue; // produces no register value (e.g. a store)
        }
        let def_lat = producer_latency(ddg, machine, schedule, p);
        for (cluster, slot) in demand.iter_mut().enumerate() {
            let def = if pop.cluster == cluster {
                i64::from(pop.start) + def_lat
            } else {
                match copy_start(p, cluster) {
                    Some(s) => i64::from(s) + bus_lat,
                    None => continue,
                }
            };
            let mut last = def;
            for (_, d) in ddg.out_deps(p) {
                if d.kind != DepKind::RegFlow || !well_placed(ddg, machine, schedule, d.dst) {
                    continue;
                }
                let qop = schedule.ops[&d.dst];
                if qop.cluster == cluster {
                    last = last.max(i64::from(qop.start) + ii * i64::from(d.distance));
                }
            }
            if pop.cluster == cluster {
                for cp in &schedule.copies {
                    if cp.producer == p && cp.to_cluster != cluster {
                        last = last.max(i64::from(cp.start));
                    }
                }
            }
            if last > def {
                *slot += (last - def) as u64 / schedule.ii.max(1) as u64;
            }
        }
    }
    for (cluster, &regs) in demand.iter().enumerate() {
        let budget = machine.regs_per_cluster as u64;
        if regs > budget {
            report.push(
                ViolationKind::PressureExceeded,
                vec![],
                Some(cluster),
                None,
                format!(
                    "cluster {cluster} needs {regs} stage-crossing registers, \
                     budget is {budget}"
                ),
            );
        }
    }
}

/// Span pass: the recorded span must equal the recomputed flat schedule
/// length — `max(II, last op start + 1, last copy start + bus latency)`.
fn check_span(machine: &MachineConfig, schedule: &Schedule, report: &mut CheckReport) {
    let bus_lat = machine.reg_buses.latency;
    let expected = schedule
        .ops
        .values()
        .map(|op| op.start + 1)
        .chain(schedule.copies.iter().map(|cp| cp.start + bus_lat))
        .max()
        .unwrap_or(1)
        .max(schedule.ii);
    if schedule.span != expected {
        report.push(
            ViolationKind::SpanMismatch,
            vec![],
            None,
            None,
            format!(
                "recorded span {} ≠ recomputed span {expected}",
                schedule.span
            ),
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use distvliw_ir::{DdgBuilder, PrefMap, Width};
    use distvliw_sched::ModuloScheduler;

    fn verify(
        ddg: &Ddg,
        constraints: &SchedConstraints,
        heuristic: Heuristic,
    ) -> (Schedule, CheckReport) {
        let machine = MachineConfig::paper_baseline();
        let schedule = ModuloScheduler::new(&machine)
            .schedule(ddg, constraints, &PrefMap::new(), heuristic)
            .expect("schedulable");
        let report = check_schedule(ddg, &machine, constraints, heuristic, &schedule);
        (schedule, report)
    }

    #[test]
    fn clean_schedule_verifies_clean() {
        let mut b = DdgBuilder::new();
        let l = b.load(Width::W4);
        let a = b.op(distvliw_ir::OpKind::IntAlu, &[l]);
        let _s = b.store(Width::W4, &[a]);
        let g = b.finish();
        for h in [Heuristic::PrefClus, Heuristic::MinComs] {
            let (_, report) = verify(&g, &SchedConstraints::none(), h);
            assert!(report.is_clean(), "{report}");
        }
    }

    #[test]
    fn empty_graph_is_clean() {
        let g = DdgBuilder::new().finish();
        let constraints = SchedConstraints::none().with_min_ii(3);
        let (s, report) = verify(&g, &constraints, Heuristic::PrefClus);
        assert_eq!(s.ii, 3);
        assert!(report.is_clean(), "{report}");
    }

    #[test]
    fn summary_formats_kinds() {
        let mut r = CheckReport::default();
        assert_eq!(r.summary(), "clean");
        r.push(
            ViolationKind::FuOverflow,
            vec![NodeId(0)],
            Some(1),
            Some(0),
            "two ops".into(),
        );
        r.push(
            ViolationKind::FuOverflow,
            vec![NodeId(1)],
            Some(2),
            Some(0),
            "two ops".into(),
        );
        r.push(
            ViolationKind::SpanMismatch,
            vec![],
            None,
            None,
            "3 ≠ 4".into(),
        );
        assert_eq!(r.summary(), "3 violations: fu-overflow=2 span-mismatch=1");
        let text = r.to_string();
        assert!(
            text.contains("fu-overflow: two ops [n0] (cluster 1) (cycle 0)"),
            "{text}"
        );
    }

    #[test]
    fn all_kinds_have_distinct_names() {
        let mut names: Vec<&str> = ViolationKind::ALL.iter().map(|k| k.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), ViolationKind::ALL.len());
    }
}
