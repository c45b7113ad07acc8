//! The swing-style modulo scheduler with integrated cluster assignment.
//!
//! For each candidate initiation interval (II) starting at the MII, nodes
//! are placed in priority order into per-cluster modulo reservation
//! tables. Cluster choice follows the active heuristic (paper
//! Section 2.2):
//!
//! * **PrefClus** — memory instructions go to their *preferred cluster*
//!   (profile-derived); MDC chains go to the chain's average preferred
//!   cluster; everything else minimizes communications with balance as a
//!   tie-break.
//! * **MinComs** — every unconstrained instruction minimizes
//!   register-to-register communications (workload balance as tie-break);
//!   a post-pass then maps virtual clusters to physical clusters so local
//!   accesses are maximized.
//!
//! Register-flow edges that end up crossing clusters materialize explicit
//! copy operations reserved on the register-bus rows of the reservation
//! table — the paper's "communication operations".
//!
//! # Hot-path layout
//!
//! The scheduler re-runs for every (solution × heuristic × II candidate ×
//! latency-class trial) combination, so the inner structures are dense
//! and allocation-free per trial:
//!
//! * every per-node side table ([`distvliw_ir::NodeMap`], [`CopyTable`])
//!   is a flat `NodeId`-indexed vector — no tree maps on the hot path;
//! * a candidate placement reserves resources directly in the [`Mrt`] and
//!   *rolls back* through its reservation journal on failure instead of
//!   cloning the table per trial;
//! * one `Placer` per search owns the latency assignment and every
//!   buffer of a placement pass (reservation table, placement, copy
//!   table, live ranges and their journal, worklist, eviction record),
//!   reset rather than reallocated per pass; candidate clusters come
//!   back inline;
//! * the priority order is computed once per latency assignment (it does
//!   not depend on the II) by a [`PriorityOrder`] whose topology is
//!   built once per search;
//! * one [`RecMiiSolver`] instance carries its scratch buffers across
//!   every latency-assignment trial, and a trial that moves only loads
//!   on no dependence cycle skips its feasibility probe.

use std::collections::{BTreeMap, VecDeque};
use std::sync::OnceLock;

use distvliw_arch::{LatencyClass, MachineConfig, MAX_CLUSTERS};
use distvliw_coherence::SchedConstraints;
use distvliw_ir::{Ddg, DepKind, NodeId, NodeMap, PrefMap};
use distvliw_obs::{Counter, Histogram};

use crate::dense::{DenseDeps, DepRec};
use crate::eject::{eject_budget, EvictionRecord};
use crate::mii::{constrained_res_mii, res_mii, RecMiiSolver};
use crate::mrt::Mrt;
use crate::order::PriorityOrder;
use crate::pressure::{range_cost, PressureCtx};
use crate::schedule::{CopyOp, SchedStats, Schedule, ScheduleError, ScheduledOp};

/// Slack subtracted from an II seed before the search opens: covers
/// small graph drift between the run that recorded the seed and the
/// current one, while still skipping the (deterministically re-failing)
/// II range below it.
pub const SEED_II_SLACK: u32 = 2;

/// The II a search seeded with `seed` opens at, when the seed applies:
/// `seed − SEED_II_SLACK`, and only when that is strictly above the MII
/// (the bound stays sound).
fn seed_opening(seed: Option<u32>, mii: u32) -> Option<u32> {
    seed.map(|s| s.saturating_sub(SEED_II_SLACK))
        .filter(|&start| start > mii)
}

/// The raised load-latency classes phase 2 tries, largest first.
const RELAXED_CLASSES: [LatencyClass; 3] = [
    LatencyClass::RemoteMiss,
    LatencyClass::LocalMiss,
    LatencyClass::RemoteHit,
];

/// The two cluster-assignment heuristics of the paper.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Heuristic {
    /// Memory instructions to their preferred (profiled) cluster.
    PrefClus,
    /// Minimize communications; post-pass maps virtual→physical clusters.
    MinComs,
}

impl std::fmt::Display for Heuristic {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Heuristic::PrefClus => f.write_str("PrefClus"),
            Heuristic::MinComs => f.write_str("MinComs"),
        }
    }
}

impl std::str::FromStr for Heuristic {
    type Err = String;

    /// Parses the case-insensitive heuristic name used in request bodies
    /// and CLI flags (`prefclus`, `mincoms`).
    fn from_str(s: &str) -> Result<Self, String> {
        match s.to_ascii_lowercase().as_str() {
            "prefclus" => Ok(Heuristic::PrefClus),
            "mincoms" => Ok(Heuristic::MinComs),
            other => Err(format!(
                "unknown heuristic `{other}` (expected prefclus or mincoms)"
            )),
        }
    }
}

/// The read-only inputs shared by every placement attempt of one
/// `schedule` call.
#[derive(Clone, Copy)]
struct SchedCtx<'a> {
    ddg: &'a Ddg,
    dense: &'a DenseDeps,
    constraints: &'a SchedConstraints,
    prefs: &'a PrefMap,
    heuristic: Heuristic,
}

/// The scheduler's metric families in the global registry.
struct Metrics {
    duration: Histogram,
    schedules: Counter,
    iis_tried: Counter,
    placement_attempts: Counter,
    ejections: Counter,
    seeded: Counter,
    memo_hits: Counter,
    failures: Counter,
}

/// The scheduler's metric handles, every family registered on first use.
fn metrics() -> &'static Metrics {
    static METRICS: OnceLock<Metrics> = OnceLock::new();
    METRICS.get_or_init(|| {
        let reg = distvliw_obs::global();
        Metrics {
            duration: reg.histogram(
                "sched_schedule_duration_us",
                "Wall time of one schedule() call in microseconds",
            ),
            schedules: reg.counter("sched_schedules_total", "Completed schedule() calls"),
            iis_tried: reg.counter(
                "sched_iis_tried_total",
                "Candidate initiation intervals tried across all searches",
            ),
            placement_attempts: reg.counter(
                "sched_placement_attempts_total",
                "Node placement attempts across all searches",
            ),
            ejections: reg.counter(
                "sched_ejections_total",
                "Nodes evicted by forced placements",
            ),
            seeded: reg.counter(
                "sched_seeded_schedules_total",
                "Schedules whose II search opened from a stored seed",
            ),
            memo_hits: reg.counter(
                "sched_memo_hits_total",
                "Schedules served from the pipeline's schedule memo without a search",
            ),
            failures: reg.counter(
                "sched_schedule_failures_total",
                "schedule() calls returning an error",
            ),
        }
    })
}

/// Registers every scheduler metric family in the global registry (at
/// zero), so an exposition lists them before the first schedule.
pub fn register_metrics() {
    metrics();
}

/// Counts one successful schedule into the `sched_*` effort families:
/// a search that just ran (`memoized` false) and a schedule a memo
/// returns in place of one (`memoized` true, also counted in
/// `sched_memo_hits_total`) count the same way, at the effort their
/// [`SchedStats`] report. Only a search that ran records
/// `sched_schedule_duration_us`.
pub fn count_schedule(stats: &SchedStats, memoized: bool) {
    let metrics = metrics();
    metrics.schedules.inc();
    metrics.iis_tried.add(u64::from(stats.iis_tried));
    metrics.placement_attempts.add(stats.placement_attempts);
    metrics.ejections.add(stats.ejections);
    metrics.seeded.add(u64::from(stats.seeded_at.is_some()));
    metrics.memo_hits.add(u64::from(memoized));
}

/// What one search did, pass by pass: the effort of each phase-1
/// placement pass, one per II from the II it opened at up to the one
/// that placed, and the effort of the phase-2 latency assignment at that
/// II. A pass at one II never depends on another II's pass, so the
/// search a seed opens higher up does exactly this record's passes from
/// its opening on: [`SearchRecord::stats`] reports any such search
/// without running it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SearchRecord {
    /// The achieved initiation interval.
    pub ii: u32,
    /// The lower bound of the search (see [`SchedStats::mii`]).
    pub mii: u32,
    /// The II the recorded search opened at.
    opened_at: u32,
    /// One entry per phase-1 pass, for IIs `opened_at..=ii`.
    passes: Vec<SearchCounters>,
    /// Every phase-2 trial at `ii`.
    relax: SearchCounters,
}

impl SearchRecord {
    /// The [`SchedStats`] a search of this problem opened from `seed`
    /// reports — the one definition of a search's telemetry, for a
    /// search that ran ([`ModuloScheduler::schedule_with_stats`]) and for
    /// one a memo answers from this record. A seed whose opening lies
    /// above the achieved II opens no search this record describes, and
    /// is reported unseeded (so the empty graph's trivial schedule, which
    /// searches nothing, ignores every seed).
    ///
    /// # Panics
    ///
    /// Panics if the seed opens below the II this record's own search
    /// opened at: those passes were never run.
    #[must_use]
    pub fn stats(&self, seed: Option<u32>) -> SchedStats {
        let seeded_at = seed_opening(seed, self.mii).filter(|&start| start <= self.ii);
        let open = seeded_at.unwrap_or(self.mii);
        let skipped = open
            .checked_sub(self.opened_at)
            .expect("a record reports only the passes its search ran");
        let passes = &self.passes[skipped as usize..];
        let mut stats = SchedStats {
            ii: self.ii,
            mii: self.mii,
            iis_tried: u32::try_from(passes.len()).expect("one pass per II"),
            seeded_at,
            ..SchedStats::default()
        };
        for pass in passes.iter().chain([&self.relax]) {
            stats.placement_attempts += pass.attempts;
            stats.ejections += pass.ejections;
            stats.max_reg_pressure = stats.max_reg_pressure.max(pass.max_pressure);
        }
        stats
    }
}

/// Modulo scheduler for one machine configuration.
#[derive(Debug, Clone)]
pub struct ModuloScheduler<'m> {
    machine: &'m MachineConfig,
    relax_latencies: bool,
    ii_seed: Option<u32>,
}

impl<'m> ModuloScheduler<'m> {
    /// Creates a scheduler with cache-sensitive latency assignment. Each
    /// candidate II gets one ejecting worklist placement pass.
    #[must_use]
    pub fn new(machine: &'m MachineConfig) -> Self {
        ModuloScheduler {
            machine,
            relax_latencies: true,
            ii_seed: None,
        }
    }

    /// Enables or disables the latency-assignment relaxation pass
    /// (paper Section 2.2, reference 21); useful for ablation studies.
    #[must_use]
    pub fn with_latency_relaxation(mut self, on: bool) -> Self {
        self.relax_latencies = on;
        self
    }

    /// Seeds the II search with a previously achieved II for this
    /// (graph, constraints, heuristic) configuration: the search opens
    /// at `seed −` [`SEED_II_SLACK`] (clamped to the MII), skipping
    /// the II range a prior deterministic run already proved
    /// unplaceable. An accurate seed reproduces the unseeded schedule
    /// exactly (the skipped IIs would fail again identically); callers
    /// must key seeds by the full configuration, since a seed recorded
    /// for a *different* graph could mask a lower feasible II.
    #[must_use]
    pub fn with_ii_seed(mut self, seed: Option<u32>) -> Self {
        self.ii_seed = seed;
        self
    }

    /// Schedules `ddg` under `constraints` with the given heuristic.
    ///
    /// # Errors
    ///
    /// Returns [`ScheduleError::InvalidGraph`] for graphs with
    /// zero-distance cycles and [`ScheduleError::NoFeasibleIi`] if no II
    /// up to the search bound admits a placement.
    pub fn schedule(
        &self,
        ddg: &Ddg,
        constraints: &SchedConstraints,
        prefs: &PrefMap,
        heuristic: Heuristic,
    ) -> Result<Schedule, ScheduleError> {
        self.schedule_with_stats(ddg, constraints, prefs, heuristic)
            .map(|(s, _)| s)
    }

    /// Like [`ModuloScheduler::schedule`], additionally returning the
    /// search telemetry ([`SchedStats`]): attempts, ejections, the MII
    /// and the seed that applied — [`SearchRecord::stats`] of the search
    /// at this scheduler's seed.
    ///
    /// # Errors
    ///
    /// Same contract as [`ModuloScheduler::schedule`].
    pub fn schedule_with_stats(
        &self,
        ddg: &Ddg,
        constraints: &SchedConstraints,
        prefs: &PrefMap,
        heuristic: Heuristic,
    ) -> Result<(Schedule, SchedStats), ScheduleError> {
        self.schedule_with_record(ddg, constraints, prefs, heuristic)
            .map(|(schedule, record)| (schedule, record.stats(self.ii_seed)))
    }

    /// Like [`ModuloScheduler::schedule`], additionally returning the
    /// pass-by-pass [`SearchRecord`] of the search, from which
    /// [`SearchRecord::stats`] derives the telemetry of this search and
    /// of any search of the same problem a seed opens higher up. The
    /// pipeline's schedule memo stores it next to the schedule. The
    /// search is timed in `sched_schedule_duration_us` and counted into
    /// the other `sched_*` families at this scheduler's seed.
    ///
    /// # Errors
    ///
    /// Same contract as [`ModuloScheduler::schedule`].
    pub fn schedule_with_record(
        &self,
        ddg: &Ddg,
        constraints: &SchedConstraints,
        prefs: &PrefMap,
        heuristic: Heuristic,
    ) -> Result<(Schedule, SearchRecord), ScheduleError> {
        let start = std::time::Instant::now();
        let mut span = distvliw_obs::Span::enter("sched.schedule");
        span.field_u64("nodes", ddg.node_count() as u64);
        let result = self.schedule_inner(ddg, constraints, prefs, heuristic);
        let metrics = metrics();
        metrics.duration.record_micros(start.elapsed());
        match &result {
            Ok((_, record)) => {
                let stats = record.stats(self.ii_seed);
                span.field_u64("ii", u64::from(stats.ii));
                span.field_u64("mii", u64::from(stats.mii));
                span.field_u64("iis_tried", u64::from(stats.iis_tried));
                span.field_u64("ejections", stats.ejections);
                count_schedule(&stats, false);
            }
            Err(_) => {
                span.field_str("error", "unschedulable");
                metrics.failures.inc();
            }
        }
        result
    }

    fn schedule_inner(
        &self,
        ddg: &Ddg,
        constraints: &SchedConstraints,
        prefs: &PrefMap,
        heuristic: Heuristic,
    ) -> Result<(Schedule, SearchRecord), ScheduleError> {
        let min_ii = constraints.min_ii.max(1);
        if ddg.has_zero_distance_cycle() {
            return Err(ScheduleError::InvalidGraph);
        }
        if ddg.node_count() == 0 {
            // Honor a constraint-mandated minimum II even for the
            // trivial schedule.
            return Ok((
                Schedule {
                    ii: min_ii,
                    ops: BTreeMap::new(),
                    copies: Vec::new(),
                    span: min_ii,
                    n_clusters: self.machine.n_clusters,
                },
                SearchRecord {
                    ii: min_ii,
                    mii: min_ii,
                    opened_at: min_ii,
                    passes: Vec::new(),
                    relax: SearchCounters::default(),
                },
            ));
        }
        // Search set-up: the dense graph, the recurrence solver, the MII
        // bounds, the order topology and the placer, built once per
        // search.
        let setup_span = distvliw_obs::Span::enter("sched.setup");
        let dense = DenseDeps::new(ddg);
        let ctx = SchedCtx {
            ddg,
            dense: &dense,
            constraints,
            prefs,
            heuristic,
        };

        // Phase 1: optimistic latencies (local hit for every load).
        let local_hit = self.machine.latency_of(LatencyClass::LocalHit);
        let mut classes: NodeMap<LatencyClass> =
            ddg.loads().map(|l| (l, LatencyClass::LocalHit)).collect();
        let lat = self.cycles_of(&classes);
        let mut rec_solver = RecMiiSolver::from_dense(&dense);

        // Every II below the MII is provably infeasible. The
        // constraint-aware resource bound matters under MDC: a chain
        // colocated in one cluster needs the single-cluster bound, and
        // the machine-wide ResMII alone would open the scan where every
        // II fails one full placement pass.
        let mii0 = res_mii(ddg, self.machine)
            .max(rec_solver.rec_mii(&lat))
            .max(constrained_res_mii(ddg, self.machine, constraints))
            .max(min_ii);
        if mii0 == u32::MAX {
            return Err(ScheduleError::InvalidGraph);
        }
        // Seed from a prior run of this configuration, keeping the
        // bound sound (never below the MII).
        let start_ii = seed_opening(self.ii_seed, mii0).unwrap_or(mii0);
        // MDC chains can serialize all memory ops of a chain in one
        // cluster, inflating the achievable II up to n_clusters × ResMII.
        let max_ii = mii0
            .saturating_mul(self.machine.n_clusters as u32)
            .saturating_add(ddg.node_count() as u32)
            .saturating_add(32)
            .max(start_ii);

        // One ejecting pass per II, each counted on its own;
        // `used_eject` records whether it had to force a node at the II
        // it placed. The priority order depends only on the latency
        // assignment, not the II: compute it once for the whole II
        // search. The order topology and the placer's buffers serve
        // every pass of both phases.
        let mut passes: Vec<SearchCounters> = Vec::new();
        let mut priority = PriorityOrder::from_dense(&dense);
        let mut placer = Placer::new(self.machine, ctx, lat);
        drop(setup_span);
        let order = priority.order(&placer.load_lat);
        let mut found: Option<(u32, Placement, bool)> = None;
        for ii in start_ii..=max_ii {
            let mut trial_span = distvliw_obs::Span::enter("sched.ii_trial");
            trial_span.field_u64("ii", u64::from(ii));
            let placed = placer.try_place(order, ii, true);
            passes.push(std::mem::take(&mut placer.counters));
            if let Some(forced) = placed {
                trial_span.field_str("outcome", if forced { "ejected" } else { "placed" });
                found = Some((ii, placer.take_placement(), forced));
                break;
            }
            trial_span.field_str("outcome", "infeasible");
        }
        let Some((ii0, mut best, used_eject)) = found else {
            return Err(ScheduleError::NoFeasibleIi {
                mii: mii0,
                max_tried: max_ii,
                attempts: passes.iter().map(|p| p.attempts).sum(),
                first_blocked: passes.last().and_then(|p| p.first_blocked),
            });
        };
        let span_budget = best.span.saturating_add(4 * ii0);

        // Phase 2: cache-sensitive latency assignment — raise load
        // latencies as far as compute time (II and schedule length)
        // allows.
        if self.relax_latencies && !classes.is_empty() {
            let mut relax_span = distvliw_obs::Span::enter("sched.relax");
            let mut tally = RelaxTally::default();
            let mut saved: Vec<(NodeId, LatencyClass)> = Vec::new();
            // One trial moves `moved` to `class` and re-places at `ii0`,
            // keeping the placement if its span fits the budget — compute
            // time is dominated by the II, so the pipeline fill may grow
            // by a bounded number of stages, as the paper's latency
            // assignment does — and restoring the old classes otherwise.
            // The current classes are feasible at `ii0` (phase 1 placed
            // there, and every accepted trial was feasible), so a trial
            // that moves only loads on no dependence cycle changes no
            // cycle's weight and needs no feasibility probe.
            let mut trial = |classes: &mut NodeMap<LatencyClass>,
                             moved: &[NodeId],
                             class: LatencyClass,
                             eject: bool| {
                tally.trials += 1;
                saved.clear();
                for &l in moved {
                    saved.push((l, classes[l]));
                    classes.insert(l, class);
                    placer.load_lat.insert(l, self.machine.latency_of(class));
                }
                let acyclic = moved.iter().all(|&l| !rec_solver.on_recurrence(l));
                tally.feasibility_skipped += u64::from(acyclic);
                if acyclic || rec_solver.feasible_at(&placer.load_lat, ii0) {
                    tally.placements += 1;
                    let order = priority.order(&placer.load_lat);
                    if placer.try_place(order, ii0, eject).is_some() {
                        let placed = placer.take_placement();
                        if placed.span <= span_budget {
                            placer.recycle(std::mem::replace(&mut best, placed));
                            tally.accepted += 1;
                            return true;
                        }
                        placer.recycle(placed);
                    }
                }
                for &(l, old) in &saved {
                    classes.insert(l, old);
                    placer.load_lat.insert(l, self.machine.latency_of(old));
                }
                false
            };
            let loads: Vec<NodeId> = classes.keys().collect();
            // Joint pass: the largest uniform class that still fits. It
            // may eject only if phase 1 had to at `ii0` — when phase 1
            // forced nothing, relaxation stays plain.
            let mut uniform = LatencyClass::LocalHit;
            for class in RELAXED_CLASSES {
                if self.machine.latency_of(class) > local_hit
                    && trial(&mut classes, &loads, class, used_eject)
                {
                    uniform = class;
                    break;
                }
            }
            // Per-load refinement above the uniform class. Its trials
            // never eject: they multiply by the load count, and a
            // full-budget ejecting pass per failed trial is a degenerate
            // search-cost blowup.
            if uniform != LatencyClass::RemoteMiss {
                for &load in &loads {
                    for class in RELAXED_CLASSES {
                        if self.machine.latency_of(class) <= self.machine.latency_of(classes[load])
                            || trial(&mut classes, &[load], class, false)
                        {
                            break;
                        }
                    }
                }
            }
            relax_span.field_u64("trials", tally.trials);
            relax_span.field_u64("placements", tally.placements);
            relax_span.field_u64("accepted", tally.accepted);
            relax_span.field_u64("feasibility_skipped", tally.feasibility_skipped);
        }
        let relax = placer.counters;

        let record = SearchRecord {
            ii: ii0,
            mii: mii0,
            opened_at: start_ii,
            passes,
            relax,
        };
        let mut schedule = Schedule {
            ii: ii0,
            ops: best
                .placed
                .iter()
                .map(|(n, &(cluster, start))| {
                    (
                        n,
                        ScheduledOp {
                            node: n,
                            cluster,
                            start,
                            assumed_class: classes.get(n).copied(),
                        },
                    )
                })
                .collect(),
            copies: best.copies,
            span: best.span,
            n_clusters: self.machine.n_clusters,
        };

        if heuristic == Heuristic::MinComs {
            let perm = best_physical_mapping(ddg, &schedule, prefs, self.machine.n_clusters);
            schedule.permute_clusters(&perm);
        }
        Ok((schedule, record))
    }

    fn cycles_of(&self, classes: &NodeMap<LatencyClass>) -> NodeMap<u32> {
        classes
            .iter()
            .map(|(n, &c)| (n, self.machine.latency_of(c)))
            .collect()
    }
}

/// The effort of one phase-1 placement pass, or of every phase-2 trial
/// of one search: a [`SearchRecord`] entry.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
struct SearchCounters {
    /// Candidate `(cluster, cycle)` commit trials.
    attempts: u64,
    /// Ops evicted by the ejecting passes.
    ejections: u64,
    /// Peak accepted per-cluster register pressure.
    max_pressure: u32,
    /// The node a failed pass could not place.
    first_blocked: Option<NodeId>,
}

/// What phase 2 of one search did, for its `sched.relax` span.
#[derive(Debug, Default)]
struct RelaxTally {
    /// Latency-assignment trials.
    trials: u64,
    /// Trials that ran a placement pass.
    placements: u64,
    /// Trials whose placement was kept.
    accepted: u64,
    /// Trials that moved only loads on no dependence cycle, so skipped
    /// the feasibility probe.
    feasibility_skipped: u64,
}

/// Dense `(node, cluster) → copy start cycle` table: which clusters
/// already receive a copy of each producer's value, and when the transfer
/// starts.
struct CopyTable {
    n_clusters: usize,
    slots: Vec<Option<u32>>,
}

impl CopyTable {
    fn new(n_nodes: usize, n_clusters: usize) -> Self {
        CopyTable {
            n_clusters,
            slots: vec![None; n_nodes * n_clusters],
        }
    }

    fn get(&self, producer: NodeId, cluster: usize) -> Option<u32> {
        self.slots[producer.index() * self.n_clusters + cluster]
    }

    fn insert(&mut self, producer: NodeId, cluster: usize, start: u32) {
        self.slots[producer.index() * self.n_clusters + cluster] = Some(start);
    }

    fn remove(&mut self, producer: NodeId, cluster: usize) {
        self.slots[producer.index() * self.n_clusters + cluster] = None;
    }

    fn clear(&mut self) {
        self.slots.fill(None);
    }
}

/// A node's candidate clusters, best first, held inline (a machine has
/// at most [`MAX_CLUSTERS`] clusters).
#[derive(Clone, Copy)]
struct Candidates {
    len: usize,
    clusters: [u8; MAX_CLUSTERS],
}

impl Candidates {
    /// Just `cluster`.
    fn one(cluster: usize) -> Self {
        let mut clusters = [0; MAX_CLUSTERS];
        clusters[0] = u8::try_from(cluster).expect("a cluster index is below MAX_CLUSTERS");
        Candidates { len: 1, clusters }
    }

    /// Every cluster of an `n`-cluster machine, in `key` order (the keys
    /// are unique, so no tie is left to the sort).
    fn sorted<K: Ord>(n: usize, mut key: impl FnMut(usize) -> K) -> Self {
        let mut clusters = [0; MAX_CLUSTERS];
        for (c, slot) in clusters[..n].iter_mut().enumerate() {
            *slot = c as u8;
        }
        clusters[..n].sort_unstable_by_key(|&c| key(usize::from(c)));
        Candidates { len: n, clusters }
    }

    fn iter(&self) -> impl Iterator<Item = usize> + '_ {
        self.clusters[..self.len].iter().map(|&c| usize::from(c))
    }
}

/// A planned (not yet accepted) inter-cluster copy of one commit attempt.
struct PlannedCopy {
    producer: NodeId,
    from: usize,
    to: usize,
    start: u32,
}

/// Sentinel for an absent live range in the placer's flat
/// `(node × cluster)` range table (costs zero registers).
const NO_RANGE: (i64, i64) = (i64::MAX, i64::MIN);

/// The placement state of one search: the current latency assignment
/// and every buffer a placement pass needs, reset (not reallocated) for
/// each pass.
struct Placer<'a> {
    machine: &'a MachineConfig,
    ctx: SchedCtx<'a>,
    /// The search's current load-latency assignment.
    load_lat: NodeMap<u32>,
    /// The II of the current pass.
    ii: u32,
    bus_lat: u32,
    mrt: Mrt,
    placed: NodeMap<(usize, u32)>,
    copies: Vec<CopyOp>,
    copy_map: CopyTable,
    group_cluster: BTreeMap<u32, usize>,
    /// Reused across commit attempts (cleared each time).
    planned: Vec<PlannedCopy>,
    /// Live range of each value per cluster (`node × n_clusters +
    /// cluster`, [`NO_RANGE`] when absent) — the incremental state of
    /// the stage-aware pressure model.
    ranges: Vec<(i64, i64)>,
    /// Per-cluster stage-crossing register demand
    /// (`Σ range_cost(ranges)` — see `crate::pressure`).
    stage_regs: Vec<u64>,
    /// Live-range journal of the in-flight commit.
    range_log: Vec<(usize, (i64, i64))>,
    /// The pass's worklist.
    queue: VecDeque<NodeId>,
    /// Per node, the earliest start its next forced placement may take.
    floor: NodeMap<u32>,
    /// What the in-flight ejection chain evicted.
    evictions: EvictionRecord,
    /// Search telemetry: the current phase-1 pass, or every phase-2
    /// trial so far.
    counters: SearchCounters,
}

impl<'a> Placer<'a> {
    fn new(machine: &'a MachineConfig, ctx: SchedCtx<'a>, load_lat: NodeMap<u32>) -> Self {
        let n_clusters = machine.n_clusters;
        assert!(
            n_clusters <= MAX_CLUSTERS,
            "a machine has at most {MAX_CLUSTERS} clusters"
        );
        let n_nodes = ctx.ddg.node_count();
        Placer {
            machine,
            ctx,
            load_lat,
            ii: 1,
            bus_lat: machine.reg_buses.latency,
            mrt: Mrt::new(machine, 1),
            placed: NodeMap::with_capacity(n_nodes),
            copies: Vec::new(),
            copy_map: CopyTable::new(n_nodes, n_clusters),
            group_cluster: BTreeMap::new(),
            planned: Vec::new(),
            ranges: vec![NO_RANGE; n_nodes * n_clusters],
            stage_regs: vec![0; n_clusters],
            range_log: Vec::new(),
            queue: VecDeque::with_capacity(n_nodes),
            floor: NodeMap::with_capacity(n_nodes),
            evictions: EvictionRecord::default(),
            counters: SearchCounters::default(),
        }
    }

    /// Empties the placement for a fresh pass at `ii`.
    fn reset(&mut self, ii: u32) {
        self.ii = ii;
        self.mrt.reset(ii);
        self.placed.clear();
        self.copies.clear();
        self.copy_map.clear();
        self.group_cluster
            .clone_from(&self.ctx.constraints.group_target);
        self.ranges.fill(NO_RANGE);
        self.stage_regs.fill(0);
        self.floor.clear();
    }

    /// One from-scratch worklist placement pass at a fixed II under the
    /// current latency assignment, placing nodes in `order`. A node
    /// that cannot be placed fails the pass when `eject` is false;
    /// otherwise it is forced in, evicting the ops blocking it (see
    /// `crate::eject`), which re-enter the worklist at the back, and the
    /// pass fails once the ejection budget is spent or a node cannot be
    /// forced into any cluster. Up to its first forced node, the
    /// ejecting pass is exactly the plain one. Returns whether any node
    /// was forced, or `None` when the pass failed; a placed pass leaves
    /// its placement for [`Placer::take_placement`].
    fn try_place(&mut self, order: &[NodeId], ii: u32, eject: bool) -> Option<bool> {
        self.reset(ii);
        let mut budget = eject_budget(self.ctx.ddg.node_count());
        self.queue.clear();
        self.queue.extend(order);
        let mut forced = false;
        while let Some(n) = self.queue.pop_front() {
            if self.place(n) {
                continue;
            }
            let Some(cost) = eject.then(|| self.force_place(n)).flatten() else {
                self.counters.first_blocked = Some(n);
                return None;
            };
            self.counters.ejections += cost;
            if cost > budget {
                self.counters.first_blocked = Some(n);
                return None;
            }
            budget -= cost;
            forced = true;
        }
        Some(forced)
    }

    /// Places `n` in the best feasible cluster/cycle, or reports failure.
    fn place(&mut self, n: NodeId) -> bool {
        let candidates = self.candidate_clusters(n);
        for c in candidates.iter() {
            let Some((est, lst)) = self.start_bounds(n, c) else {
                continue;
            };
            let hi = lst.min(est + i64::from(self.ii) - 1);
            let mut t = est;
            while t <= hi {
                let start = u32::try_from(t).expect("start bounded");
                if self.commit(n, c, start) {
                    return true;
                }
                t += 1;
            }
        }
        false
    }

    /// Candidate clusters for `n`, best first.
    fn candidate_clusters(&self, n: NodeId) -> Candidates {
        let constraints = self.ctx.constraints;
        if let Some(&pin) = constraints.pinned.get(&n) {
            return Candidates::one(pin);
        }
        if let Some(g) = constraints.colocate.get(&n) {
            if let Some(&c) = self.group_cluster.get(g) {
                return Candidates::one(c);
            }
        }
        let n_clusters = self.machine.n_clusters;
        let op = self.ctx.ddg.node(n);
        if self.ctx.heuristic == Heuristic::PrefClus && op.is_memory() {
            if let Some(info) = op.mem_id().and_then(|m| self.ctx.prefs.get(&m)) {
                // Preferred cluster first, then the rest by profile count.
                let counts = info.counts();
                return Candidates::sorted(n_clusters, |c| (std::cmp::Reverse(counts[c]), c));
            }
        }
        // MinComs cost: copies needed if placed in c — placed
        // register-flow neighbours in other clusters — then current load.
        let mut neighbors = 0;
        let mut local = [0u32; MAX_CLUSTERS];
        for d in self.ctx.dense.in_deps(n) {
            if d.kind == DepKind::RegFlow {
                if let Some(&(pc, _)) = self.placed.get(d.src) {
                    local[pc] += 1;
                    neighbors += 1;
                }
            }
        }
        for d in self.ctx.dense.out_deps(n) {
            if d.kind == DepKind::RegFlow {
                if let Some(&(sc, _)) = self.placed.get(d.dst) {
                    local[sc] += 1;
                    neighbors += 1;
                }
            }
        }
        Candidates::sorted(n_clusters, |c| {
            (neighbors - local[c], self.mrt.cluster_load(c), c)
        })
    }

    /// Earliest start in cluster `c` that the placed producer of `d`
    /// allows, or `None` when it is unplaced or `d` is a self edge (self
    /// edges are covered by RecMII). Cross-cluster register flow reads
    /// the producer's existing copy into `c` when there is one and
    /// otherwise pays a bus transfer.
    fn pred_bound(&self, d: &DepRec, c: usize) -> Option<i64> {
        if d.src == d.dst {
            return None;
        }
        let &(pc, ps) = self.placed.get(d.src)?;
        let value = i64::from(ps) + i64::from(d.latency(&self.load_lat));
        let arrival = if d.kind == DepKind::RegFlow && pc != c {
            let sent = self.copy_map.get(d.src, c).map_or(value, i64::from);
            sent + i64::from(self.bus_lat)
        } else {
            value
        };
        Some(arrival - i64::from(self.ii) * i64::from(d.distance))
    }

    /// Latest start in cluster `c` that the placed consumer of `d`
    /// allows, or `None` when it is unplaced or `d` is a self edge.
    /// Cross-cluster register flow must leave room for the copy.
    fn succ_bound(&self, d: &DepRec, c: usize) -> Option<i64> {
        if d.src == d.dst {
            return None;
        }
        let &(sc, ss) = self.placed.get(d.dst)?;
        let transfer = if d.kind == DepKind::RegFlow && sc != c {
            i64::from(self.bus_lat)
        } else {
            0
        };
        let carried = i64::from(self.ii) * i64::from(d.distance);
        Some(i64::from(ss) + carried - i64::from(d.latency(&self.load_lat)) - transfer)
    }

    /// Earliest start for `n` in cluster `c` from placed predecessors
    /// only (clamped ≥ 0). Shared by the bounded normal placement and
    /// the forced placement, which ignores successors and evicts the
    /// ones it violates instead.
    fn pred_est(&self, n: NodeId, c: usize) -> i64 {
        self.ctx
            .dense
            .in_deps(n)
            .iter()
            .filter_map(|d| self.pred_bound(d, c))
            .fold(0, i64::max)
    }

    /// Earliest/latest start for `n` in cluster `c` given current
    /// placements (as i64: latest may be unbounded, earliest clamped ≥ 0).
    fn start_bounds(&self, n: NodeId, c: usize) -> Option<(i64, i64)> {
        let est = self.pred_est(n, c);
        let lst = self
            .ctx
            .dense
            .out_deps(n)
            .iter()
            .filter_map(|d| self.succ_bound(d, c))
            .fold(i64::from(u32::MAX / 2), i64::min);
        (lst >= est).then_some((est, lst))
    }

    /// Attempts to commit `n` at `(c, start)`: checks the functional unit
    /// and plans every required inter-cluster copy, reserving buses
    /// directly in the reservation table. On failure the journal rolls
    /// every touched cell back — nothing is cloned either way.
    fn commit(&mut self, n: NodeId, c: usize, start: u32) -> bool {
        // Both are `Copy` references outliving `self`: iterating the graph
        // below holds no borrow of `self`, so the reservation table and
        // side tables stay freely mutable inside the loops.
        let ddg = self.ctx.ddg;
        let dense = self.ctx.dense;
        self.counters.attempts += 1;
        let class = ddg.node(n).kind.fu_class();
        if let Some(class) = class {
            if !self.mrt.fu_free(c, class, start) {
                return false;
            }
        }

        // Plan copies for cross-cluster register flow, in both directions.
        // Copies move the producer's same-iteration value; consumers at
        // distance d read the copy's value d iterations later.
        let mark = self.mrt.checkpoint();
        self.planned.clear();
        let ii = i64::from(self.ii);
        let bus_lat = i64::from(self.bus_lat);
        for d in dense.in_deps(n) {
            if d.kind != DepKind::RegFlow || d.src == n {
                continue;
            }
            let Some(&(pc, ps)) = self.placed.get(d.src) else {
                continue;
            };
            let ready = i64::from(ps) + i64::from(d.latency(&self.load_lat));
            let deadline = i64::from(start) - bus_lat + ii * i64::from(d.distance);
            if !self.plan_copy(d.src, pc, c, ready, deadline) {
                self.mrt.rollback(mark);
                return false;
            }
        }
        let ready = i64::from(start) + self.pressure_ctx().def_latency(n);
        for d in dense.out_deps(n) {
            if d.kind != DepKind::RegFlow || d.dst == n {
                continue;
            }
            let Some(&(sc, ss)) = self.placed.get(d.dst) else {
                continue;
            };
            let deadline = i64::from(ss) - bus_lat + ii * i64::from(d.distance);
            if !self.plan_copy(n, c, sc, ready, deadline) {
                self.mrt.rollback(mark);
                return false;
            }
        }

        // Stage-aware register pressure gate: the placement and its
        // planned copies must not push any cluster's stage-crossing
        // register demand past the budget. Checking here — instead of
        // letting the overflow fester until it shows up as inexplicable
        // bus-slot failures — is what makes pressure a first-class
        // placement constraint. The demand is maintained incrementally
        // (journaled live-range extensions); a rejected placement undoes
        // its extensions exactly. The placement entry inserted here is
        // the one that persists on acceptance — only the pressure-reject
        // path removes it.
        self.placed.insert(n, (c, start));
        let mut log = std::mem::take(&mut self.range_log);
        log.clear();
        self.apply_pressure(n, c, start, &mut log);
        let cap = u64::from(self.machine.regs_per_cluster as u32);
        let peak = self.stage_regs.iter().copied().max().unwrap_or(0);
        if peak > cap {
            self.undo_ranges(&mut log);
            self.range_log = log;
            self.placed.remove(n);
            self.mrt.rollback(mark);
            return false;
        }
        self.range_log = log;
        self.counters.max_pressure = self
            .counters
            .max_pressure
            .max(u32::try_from(peak).unwrap_or(u32::MAX));

        // All feasible: accept the journaled bus reservations.
        self.mrt.commit(mark);
        if let Some(class) = class {
            self.mrt.reserve_fu(c, class, start);
        }
        for p in self.planned.drain(..) {
            self.copy_map.insert(p.producer, p.to, p.start);
            self.copies.push(CopyOp {
                producer: p.producer,
                from_cluster: p.from,
                to_cluster: p.to,
                start: p.start,
            });
        }
        if let Some(&g) = self.ctx.constraints.colocate.get(&n) {
            self.group_cluster.entry(g).or_insert(c);
        }
        true
    }

    /// Plans the copy of `producer`'s value from cluster `from` to `to`
    /// for the in-flight commit: the first bus slot in
    /// `[ready, deadline]`, searched within one II of `ready`. Nothing is
    /// needed within one cluster or when the value already reaches `to`
    /// (accepted or planned copy). Returns false when no slot fits.
    fn plan_copy(
        &mut self,
        producer: NodeId,
        from: usize,
        to: usize,
        ready: i64,
        deadline: i64,
    ) -> bool {
        if from == to || self.copy_lookup(producer, to).is_some() {
            return true;
        }
        if deadline < ready {
            return false;
        }
        let last = deadline.min(ready + i64::from(self.ii));
        let Some(slot) = self.mrt.find_bus_slot(ready as u32, last as u32) else {
            return false;
        };
        self.mrt.reserve_bus(slot);
        self.planned.push(PlannedCopy {
            producer,
            from,
            to,
            start: slot,
        });
        true
    }

    /// The model context for the from-scratch pressure mirror in
    /// `crate::pressure` (debug assertions and eviction recomputes).
    fn pressure_ctx(&self) -> PressureCtx<'_> {
        PressureCtx {
            ddg: self.ctx.ddg,
            dense: self.ctx.dense,
            load_lat: &self.load_lat,
            bus_lat: self.bus_lat,
            ii: self.ii,
            n_clusters: self.machine.n_clusters,
        }
    }

    /// Copy lookup covering both accepted copies and the ones planned by
    /// the in-flight commit.
    fn copy_lookup(&self, p: NodeId, k: usize) -> Option<u32> {
        self.copy_map.get(p, k).or_else(|| {
            self.planned
                .iter()
                .find(|pc| pc.producer == p && pc.to == k)
                .map(|pc| pc.start)
        })
    }

    /// Writes one live-range cell, keeping the per-cluster demand sums
    /// in step and journaling the previous value into `log`.
    fn set_range(
        &mut self,
        node: NodeId,
        cluster: usize,
        new: (i64, i64),
        log: &mut Vec<(usize, (i64, i64))>,
    ) {
        let idx = node.index() * self.machine.n_clusters + cluster;
        let old = self.ranges[idx];
        if old == new {
            return;
        }
        log.push((idx, old));
        let sums = &mut self.stage_regs[cluster];
        *sums -= range_cost(old.0, old.1, self.ii);
        *sums += range_cost(new.0, new.1, self.ii);
        self.ranges[idx] = new;
    }

    /// Extends (or creates) the live range of `node`'s value in
    /// `cluster` to cover `[def, last]`.
    fn extend_range(
        &mut self,
        node: NodeId,
        cluster: usize,
        def: i64,
        last: i64,
        log: &mut Vec<(usize, (i64, i64))>,
    ) {
        let idx = node.index() * self.machine.n_clusters + cluster;
        let (d0, l0) = self.ranges[idx];
        let new = if (d0, l0) == NO_RANGE {
            (def, last.max(def))
        } else {
            (d0.min(def), l0.max(last))
        };
        self.set_range(node, cluster, new, log);
    }

    /// Applies the live-range updates of committing `n` at `(c, start)`
    /// (planned copies included) to the incremental pressure state.
    fn apply_pressure(
        &mut self,
        n: NodeId,
        c: usize,
        start: u32,
        log: &mut Vec<(usize, (i64, i64))>,
    ) {
        let dense = self.ctx.dense;
        let ii = i64::from(self.ii);
        let bus_lat = i64::from(self.bus_lat);
        // n's own value: home range plus ranges in every cluster its
        // placed consumers read it from.
        if dense.out_deps(n).iter().any(|d| d.kind == DepKind::RegFlow) {
            let def = i64::from(start) + self.pressure_ctx().def_latency(n);
            self.extend_range(n, c, def, def, log);
            for d in dense.out_deps(n) {
                if d.kind != DepKind::RegFlow {
                    continue;
                }
                let Some(&(qc, qs)) = self.placed.get(d.dst) else {
                    continue;
                };
                let use_at = i64::from(qs) + ii * i64::from(d.distance);
                if qc == c {
                    self.extend_range(n, c, def, use_at, log);
                } else if let Some(s0) = self.copy_lookup(n, qc) {
                    self.extend_range(n, c, def, i64::from(s0), log);
                    self.extend_range(n, qc, i64::from(s0) + bus_lat, use_at, log);
                }
            }
        }
        // Values n reads: extend their ranges to this read (and, for a
        // copy planned by this commit, the home range to the launch).
        for d in dense.in_deps(n) {
            if d.kind != DepKind::RegFlow || d.src == n {
                continue;
            }
            let p = d.src;
            let Some(&(pc, ps)) = self.placed.get(p) else {
                continue;
            };
            let use_at = i64::from(start) + ii * i64::from(d.distance);
            let home_def = i64::from(ps) + self.pressure_ctx().def_latency(p);
            if pc == c {
                self.extend_range(p, c, home_def, use_at, log);
            } else if let Some(s0) = self.copy_lookup(p, c) {
                self.extend_range(p, pc, home_def, i64::from(s0), log);
                self.extend_range(p, c, i64::from(s0) + bus_lat, use_at, log);
            }
        }
    }

    /// Recomputes the live range of `p`'s value in `cluster` from
    /// scratch (after an eviction shrank or removed contributions),
    /// journaling the overwritten cell.
    fn recompute_value_range(
        &mut self,
        p: NodeId,
        cluster: usize,
        log: &mut Vec<(usize, (i64, i64))>,
    ) {
        let ctx = self.pressure_ctx();
        let lookup = |q: NodeId, k: usize| self.copy_map.get(q, k);
        let new = crate::pressure::value_range(&ctx, &self.placed, &lookup, p, cluster)
            .unwrap_or(NO_RANGE);
        self.set_range(p, cluster, new, log);
    }

    /// Undoes journaled live-range writes, newest first.
    fn undo_ranges(&mut self, log: &mut Vec<(usize, (i64, i64))>) {
        while let Some((idx, old)) = log.pop() {
            let cluster = idx % self.machine.n_clusters;
            let cur = self.ranges[idx];
            let sums = &mut self.stage_regs[cluster];
            *sums -= range_cost(cur.0, cur.1, self.ii);
            *sums += range_cost(old.0, old.1, self.ii);
            self.ranges[idx] = old;
        }
    }

    /// Forced placement of `n` (the ejection path): pick a start bounded
    /// by placed predecessors only, evict whatever blocks it — the
    /// same-slot functional-unit occupant and every placed successor
    /// whose bound the start exceeds — and commit. Appends the evicted
    /// nodes to the worklist and returns how many there were, or `None`
    /// when no cluster admits `n` even with evictions (e.g. the register
    /// buses or the pressure budget stay exhausted).
    fn force_place(&mut self, n: NodeId) -> Option<u64> {
        let mut rec = std::mem::take(&mut self.evictions);
        let mut evicted = None;
        for c in self.candidate_clusters(n).iter() {
            // One forced shot per cluster, at the earliest
            // predecessor-legal slot (Rau's rule): the monotone floor —
            // "previous start + 1" whenever `n` is forced again at this
            // II — provides the progress a slot scan would, at a
            // fraction of the cost on hopeless IIs. A wider scan here
            // multiplies into every failed II of every latency trial.
            let base = self
                .pred_est(n, c)
                .max(i64::from(self.floor.get(n).copied().unwrap_or(0)));
            let Ok(start) = u32::try_from(base) else {
                continue;
            };
            let mark = self.mrt.checkpoint();
            rec.clear();
            self.evict_conflicts(n, c, start, &mut rec);
            if self.commit(n, c, start) {
                self.floor.insert(n, start + 1);
                self.queue.extend(rec.evicted());
                evicted = Some(rec.nodes.len() as u64);
                break;
            }
            self.unevict(&mut rec, mark);
        }
        self.evictions = rec;
        evicted
    }

    /// Evicts everything that blocks placing `n` at `(c, start)`: enough
    /// same-class ops in the target modulo slot to free a unit, and
    /// every placed successor whose `succ_bound` the start exceeds, in
    /// edge order. Predecessor bounds never need evictions — the forced
    /// start is at or after `pred_est`.
    fn evict_conflicts(&mut self, n: NodeId, c: usize, start: u32, rec: &mut EvictionRecord) {
        if let Some(class) = self.ctx.ddg.node(n).kind.fu_class() {
            while !self.mrt.fu_free(c, class, start) {
                let slot = start % self.ii;
                let victim = self
                    .placed
                    .iter()
                    .find(|&(m, &(mc, ms))| {
                        mc == c
                            && ms % self.ii == slot
                            && self.ctx.ddg.node(m).kind.fu_class() == Some(class)
                    })
                    .map(|(m, _)| m);
                match victim {
                    Some(m) => self.evict(m, rec),
                    // Unreachable (every FU reservation belongs to a
                    // placed op), but never loop on it.
                    None => break,
                }
            }
        }
        // A successor's bound depends only on its own placement, so
        // evicting one never changes whether another is late; an evicted
        // successor reached again by a parallel edge is no longer placed.
        let dense = self.ctx.dense;
        for d in dense.out_deps(n) {
            if self
                .succ_bound(d, c)
                .is_some_and(|lst| i64::from(start) > lst)
            {
                self.evict(d.dst, rec);
            }
        }
    }

    /// Removes `m` from the schedule: releases its functional unit,
    /// drops the copies that moved its value, drops copies *to* it that
    /// no other consumer in its cluster still needs, and clears its
    /// colocation-group binding when it was the group's last placed
    /// member (so a re-placed chain may pick a fresh cluster). Every
    /// release is journaled; `unevict` plus a rollback restores the
    /// exact prior state.
    fn evict(&mut self, m: NodeId, rec: &mut EvictionRecord) {
        let (mc, ms) = self.placed.remove(m).expect("evicting a placed op");
        if let Some(class) = self.ctx.ddg.node(m).kind.fu_class() {
            self.mrt.release_fu(mc, class, ms);
        }
        // Copies of m's value (m is the producer).
        let first_removed = rec.copies.len();
        self.copies.retain(|cp| {
            if cp.producer == m {
                rec.copies.push(*cp);
                false
            } else {
                true
            }
        });
        // Copies into m's cluster that only m consumed.
        for d in self.ctx.dense.in_deps(m) {
            if d.kind != DepKind::RegFlow || d.src == m {
                continue;
            }
            let p = d.src;
            let Some(&(pc, _)) = self.placed.get(p) else {
                continue;
            };
            if pc == mc || self.copy_map.get(p, mc).is_none() {
                continue;
            }
            let needed = self.ctx.dense.out_deps(p).iter().any(|e| {
                e.kind == DepKind::RegFlow
                    && e.dst != m
                    && self.placed.get(e.dst).is_some_and(|&(qc, _)| qc == mc)
            });
            if !needed {
                if let Some(pos) = self
                    .copies
                    .iter()
                    .position(|cp| cp.producer == p && cp.to_cluster == mc)
                {
                    rec.copies.push(self.copies.remove(pos));
                }
            }
        }
        for cp in &rec.copies[first_removed..] {
            self.mrt.release_bus(cp.start);
            self.copy_map.remove(cp.producer, cp.to_cluster);
        }
        // Live-range bookkeeping: m's value disappears everywhere, the
        // values m read shrink by this use, and producers whose copy was
        // dropped lose the launch from their home range.
        for k in 0..self.machine.n_clusters {
            self.set_range(m, k, NO_RANGE, &mut rec.ranges);
        }
        let dense = self.ctx.dense;
        for &d in dense.in_deps(m) {
            if d.kind != DepKind::RegFlow || d.src == m {
                continue;
            }
            if self.placed.contains_key(d.src) {
                self.recompute_value_range(d.src, mc, &mut rec.ranges);
            }
        }
        for i in first_removed..rec.copies.len() {
            let cp = rec.copies[i];
            if cp.producer != m && self.placed.contains_key(cp.producer) {
                self.recompute_value_range(cp.producer, cp.from_cluster, &mut rec.ranges);
            }
        }
        if let Some(&g) = self.ctx.constraints.colocate.get(&m) {
            if !self.ctx.constraints.group_target.contains_key(&g) {
                let still_placed = self
                    .ctx
                    .constraints
                    .colocate
                    .iter()
                    .any(|(&q, &qg)| qg == g && q != m && self.placed.contains_key(q));
                if !still_placed {
                    if let Some(cl) = self.group_cluster.remove(&g) {
                        rec.groups.push((g, cl));
                    }
                }
            }
        }
        rec.nodes.push((m, mc, ms));
    }

    /// Restores everything a rejected ejection chain evicted, emptying
    /// the record: the reservation table rolls back through its journal
    /// (releases included), the side tables restore from the record.
    fn unevict(&mut self, rec: &mut EvictionRecord, mark: crate::mrt::Checkpoint) {
        self.mrt.rollback(mark);
        self.undo_ranges(&mut rec.ranges);
        for cp in rec.copies.drain(..) {
            self.copy_map.insert(cp.producer, cp.to_cluster, cp.start);
            self.copies.push(cp);
        }
        for (g, cl) in rec.groups.drain(..) {
            self.group_cluster.insert(g, cl);
        }
        for (m, mc, ms) in rec.nodes.drain(..) {
            self.placed.insert(m, (mc, ms));
        }
    }

    /// Moves the placement of a completed pass out of the placer.
    fn take_placement(&mut self) -> Placement {
        #[cfg(debug_assertions)]
        {
            // The incremental pressure accounting must agree with the
            // from-scratch model on every completed pass.
            let ctx = self.pressure_ctx();
            let lookup = |q: NodeId, k: usize| self.copy_map.get(q, k);
            for c in 0..self.machine.n_clusters {
                debug_assert_eq!(
                    crate::pressure::cluster_pressure(&ctx, &self.placed, &lookup, c),
                    self.stage_regs[c],
                    "incremental pressure accounting diverged in cluster {c}"
                );
            }
        }
        let span = self
            .placed
            .values()
            .map(|&(_, s)| s + 1)
            .chain(self.copies.iter().map(|c| c.start + self.bus_lat))
            .max()
            .unwrap_or(1)
            .max(self.ii);
        Placement {
            placed: std::mem::take(&mut self.placed),
            copies: std::mem::take(&mut self.copies),
            span,
        }
    }

    /// Hands the buffers of a placement no longer needed back for the
    /// next pass (right after [`Placer::take_placement`] emptied them).
    fn recycle(&mut self, placement: Placement) {
        self.placed = placement.placed;
        self.copies = placement.copies;
    }
}

/// Internal placement result.
#[derive(Debug, PartialEq)]
struct Placement {
    placed: NodeMap<(usize, u32)>,
    copies: Vec<CopyOp>,
    span: u32,
}

/// The MinComs post-pass: choose the virtual→physical cluster permutation
/// that maximizes profiled local accesses (paper Section 2.2). Among
/// optimal permutations it takes the one the golden snapshots pin: see
/// [`first_optimal_assignment`].
fn best_physical_mapping(
    ddg: &Ddg,
    schedule: &Schedule,
    prefs: &PrefMap,
    n_clusters: usize,
) -> Vec<usize> {
    // gain[v][p] = profiled accesses that become local if virtual cluster
    // v is mapped to physical cluster p.
    let mut gain = vec![vec![0u64; n_clusters]; n_clusters];
    for n in ddg.mem_nodes() {
        let Some(op) = schedule.ops.get(&n) else {
            continue;
        };
        let Some(info) = ddg.node(n).mem_id().and_then(|m| prefs.get(&m)) else {
            continue;
        };
        for (g, &count) in gain[op.cluster].iter_mut().zip(info.counts()) {
            *g += count;
        }
    }
    first_optimal_assignment(&gain)
}

/// The first maximum-gain permutation in recursive-swap order (position
/// `k` tries `swap(k, i)` for `i = k..n` in turn, then recurses; the
/// identity comes first), the one an exhaustive scan from the identity at
/// score 0 that replaces only on `>` keeps. At each `k` the descent
/// commits the first swap whose fixed prefix plus the optimum of the
/// remaining rows and columns still reaches the global optimum: O(n⁵).
fn first_optimal_assignment(gain: &[Vec<u64>]) -> Vec<usize> {
    let n = gain.len();
    let mut perm: Vec<usize> = (0..n).collect();
    let optimum = max_assignment(gain, &perm);
    let mut prefix = 0u64;
    for k in 0..n {
        for i in k..n {
            perm.swap(k, i);
            let fixed = prefix + gain[k][perm[k]];
            if fixed + max_assignment(&gain[k + 1..], &perm[k + 1..]) == optimum {
                prefix = fixed;
                break;
            }
            perm.swap(k, i);
        }
    }
    perm
}

/// The maximum of `Σ rows[r][cols[σ(r)]]` over bijections σ of the rows
/// onto `cols` (the Hungarian algorithm with potentials, O(n³)).
fn max_assignment(rows: &[Vec<u64>], cols: &[usize]) -> u64 {
    let n = rows.len();
    let inf = i64::MAX / 4;
    // Minimize the negated gains; u/v are row/column potentials, p[j] is
    // the row matched to column j (0 = unmatched), way[j] the previous
    // column on the augmenting path. Indices are 1-based so slot 0 can
    // serve as the virtual start column.
    let mut u = vec![0i64; n + 1];
    let mut v = vec![0i64; n + 1];
    let mut p = vec![0usize; n + 1];
    let mut way = vec![0usize; n + 1];
    for i in 1..=n {
        p[0] = i;
        let mut j0 = 0usize;
        let mut minv = vec![inf; n + 1];
        let mut used = vec![false; n + 1];
        loop {
            used[j0] = true;
            let i0 = p[j0];
            let mut delta = inf;
            let mut j1 = 0usize;
            for j in 1..=n {
                if used[j] {
                    continue;
                }
                let cur = -(rows[i0 - 1][cols[j - 1]] as i64) - u[i0] - v[j];
                if cur < minv[j] {
                    minv[j] = cur;
                    way[j] = j0;
                }
                if minv[j] < delta {
                    delta = minv[j];
                    j1 = j;
                }
            }
            for j in 0..=n {
                if used[j] {
                    u[p[j]] += delta;
                    v[j] -= delta;
                } else {
                    minv[j] -= delta;
                }
            }
            j0 = j1;
            if p[j0] == 0 {
                break;
            }
        }
        loop {
            let j1 = way[j0];
            p[j0] = p[j1];
            j0 = j1;
            if j0 == 0 {
                break;
            }
        }
    }
    // The start column's potential ends at minus the minimum cost.
    v[0] as u64
}

#[cfg(test)]
mod tests {
    use super::*;
    use distvliw_coherence::{find_chains, transform};
    use distvliw_ir::{DdgBuilder, OpKind, PrefInfo, Width};

    fn machine() -> MachineConfig {
        MachineConfig::paper_baseline()
    }

    /// Asserts every dependence of `ddg` holds in `s` (copy latency
    /// included for cross-cluster register flow).
    fn assert_valid(ddg: &Ddg, s: &Schedule, m: &MachineConfig) {
        for (_, d) in ddg.deps() {
            if d.src == d.dst {
                continue;
            }
            let a = s.op(d.src);
            let b = s.op(d.dst);
            let lat = match d.kind {
                DepKind::RegFlow => {
                    let base = if ddg.node(d.src).is_load() {
                        a.assumed_class.map_or(1, |c| m.latency_of(c))
                    } else {
                        ddg.node(d.src).kind.base_latency()
                    };
                    if a.cluster != b.cluster {
                        base + m.reg_buses.latency
                    } else {
                        base
                    }
                }
                k => k.min_separation(),
            };
            assert!(
                i64::from(b.start) + i64::from(s.ii) * i64::from(d.distance)
                    >= i64::from(a.start) + i64::from(lat),
                "violated {d:?}: {a:?} -> {b:?} at II {}",
                s.ii
            );
        }
        // FU capacity: at most one op per class per cluster per II slot.
        let mut usage: BTreeMap<(usize, usize, u32), u32> = BTreeMap::new();
        for op in s.ops.values() {
            let Some(class) = ddg.node(op.node).kind.fu_class() else {
                continue;
            };
            *usage
                .entry((op.cluster, class.index(), op.start % s.ii))
                .or_default() += 1;
        }
        for ((c, class, slot), count) in usage {
            assert!(
                count <= 1,
                "cluster {c} class {class} slot {slot} oversubscribed"
            );
        }
    }

    fn simple_graph() -> Ddg {
        let mut b = DdgBuilder::new();
        let l = b.load(Width::W4);
        let a = b.op(OpKind::IntAlu, &[l]);
        let _s = b.store(Width::W4, &[a]);
        b.finish()
    }

    #[test]
    fn schedules_simple_chain() {
        let g = simple_graph();
        let s = ModuloScheduler::new(&machine())
            .schedule(
                &g,
                &SchedConstraints::none(),
                &PrefMap::new(),
                Heuristic::MinComs,
            )
            .unwrap();
        assert_eq!(s.ii, 1);
        assert_eq!(s.ops.len(), 3);
        assert_valid(&g, &s, &machine());
    }

    #[test]
    fn latency_relaxation_spreads_consumers() {
        // With relaxation, an isolated load-use pair gets the largest
        // latency class because nothing else constrains the span... unless
        // span would grow; here span grows, so the class stays small but
        // the schedule remains valid. Just check both modes are valid.
        let g = simple_graph();
        for relax in [false, true] {
            let s = ModuloScheduler::new(&machine())
                .with_latency_relaxation(relax)
                .schedule(
                    &g,
                    &SchedConstraints::none(),
                    &PrefMap::new(),
                    Heuristic::MinComs,
                )
                .unwrap();
            assert_valid(&g, &s, &machine());
        }
    }

    #[test]
    fn mem_pressure_raises_ii() {
        let mut b = DdgBuilder::new();
        for _ in 0..9 {
            b.load(Width::W4);
        }
        let g = b.finish();
        let s = ModuloScheduler::new(&machine())
            .schedule(
                &g,
                &SchedConstraints::none(),
                &PrefMap::new(),
                Heuristic::MinComs,
            )
            .unwrap();
        assert!(s.ii >= 3, "9 loads / 4 mem FUs needs II >= 3, got {}", s.ii);
        assert_valid(&g, &s, &machine());
    }

    #[test]
    fn mdc_chain_shares_cluster() {
        let mut b = DdgBuilder::new();
        let l1 = b.load(Width::W4);
        let l2 = b.load(Width::W4);
        let st = b.store(Width::W4, &[l1, l2]);
        b.dep(l1, st, DepKind::MemAnti, 0);
        b.dep(l2, st, DepKind::MemAnti, 0);
        let g = b.finish();
        let chains = find_chains(&g);
        let constraints = SchedConstraints::for_mdc(&chains, &g, None, 4);
        let s = ModuloScheduler::new(&machine())
            .schedule(&g, &constraints, &PrefMap::new(), Heuristic::MinComs)
            .unwrap();
        let c = s.op(l1).cluster;
        assert_eq!(s.op(l2).cluster, c);
        assert_eq!(s.op(st).cluster, c);
        // 3 memory ops serialized on one memory FU → II at least 3.
        assert!(s.ii >= 3);
        assert_valid(&g, &s, &machine());
    }

    #[test]
    fn prefclus_sends_memory_to_preferred_cluster() {
        let mut b = DdgBuilder::new();
        let l = b.load(Width::W4);
        let _a = b.op(OpKind::IntAlu, &[l]);
        let g = b.finish();
        let mut prefs = PrefMap::new();
        prefs.insert(
            g.node(l).mem_id().unwrap(),
            PrefInfo::from_counts(vec![0, 0, 90, 10]),
        );
        let s = ModuloScheduler::new(&machine())
            .schedule(&g, &SchedConstraints::none(), &prefs, Heuristic::PrefClus)
            .unwrap();
        assert_eq!(s.op(l).cluster, 2);
        assert_valid(&g, &s, &machine());
    }

    #[test]
    fn mdc_prefclus_uses_chain_average() {
        let mut b = DdgBuilder::new();
        let l1 = b.load(Width::W4);
        let l2 = b.load(Width::W4);
        b.dep(l1, l2, DepKind::MemAnti, 0); // artificial chain of two loads
        let g = b.finish();
        let mut prefs = PrefMap::new();
        prefs.insert(
            g.node(l1).mem_id().unwrap(),
            PrefInfo::from_counts(vec![60, 0, 40, 0]),
        );
        prefs.insert(
            g.node(l2).mem_id().unwrap(),
            PrefInfo::from_counts(vec![0, 0, 70, 30]),
        );
        let chains = find_chains(&g);
        let constraints = SchedConstraints::for_mdc(&chains, &g, Some(&prefs), 4);
        let s = ModuloScheduler::new(&machine())
            .schedule(&g, &constraints, &prefs, Heuristic::PrefClus)
            .unwrap();
        // Merged counts {60, 0, 110, 30} → cluster 2 for both.
        assert_eq!(s.op(l1).cluster, 2);
        assert_eq!(s.op(l2).cluster, 2);
        assert_valid(&g, &s, &machine());
    }

    #[test]
    fn ddgt_instances_cover_all_clusters() {
        let mut b = DdgBuilder::new();
        let l = b.load(Width::W4);
        let a = b.op(OpKind::IntAlu, &[l]);
        let st = b.store_to(g_mem(0), Width::W4, &[a]);
        b.dep(st, l, DepKind::MemFlow, 1);
        let mut g = b.finish();
        let report = transform(&mut g, 4);
        let constraints = SchedConstraints::for_ddgt(&report);
        let s = ModuloScheduler::new(&machine())
            .schedule(&g, &constraints, &PrefMap::new(), Heuristic::PrefClus)
            .unwrap();
        let group = &report.replica_groups[0];
        let mut clusters: Vec<usize> = group.instances.iter().map(|&i| s.op(i).cluster).collect();
        clusters.sort_unstable();
        assert_eq!(clusters, vec![0, 1, 2, 3]);
        // The producer value is broadcast: at least 3 copies.
        assert!(s.comm_ops() >= 3, "copies: {}", s.comm_ops());
        assert_valid(&g, &s, &machine());
    }

    fn g_mem(id: u32) -> distvliw_ir::MemId {
        distvliw_ir::MemId(id)
    }

    #[test]
    fn cross_cluster_flow_materializes_copies() {
        // Two chained memory ops pinned to different clusters.
        let mut b = DdgBuilder::new();
        let l = b.load(Width::W4);
        let s = b.store(Width::W4, &[l]);
        let g = b.finish();
        let mut constraints = SchedConstraints::none();
        constraints.pinned.insert(l, 0);
        constraints.pinned.insert(s, 3);
        let sched = ModuloScheduler::new(&machine())
            .schedule(&g, &constraints, &PrefMap::new(), Heuristic::PrefClus)
            .unwrap();
        assert_eq!(sched.op(l).cluster, 0);
        assert_eq!(sched.op(s).cluster, 3);
        assert_eq!(sched.comm_ops(), 1);
        let copy = sched.copies[0];
        assert_eq!((copy.from_cluster, copy.to_cluster), (0, 3));
        // Store issues only after the copy arrives.
        assert!(sched.op(s).start >= copy.start + machine().reg_buses.latency);
        assert_valid(&g, &sched, &machine());
    }

    #[test]
    fn copies_are_deduplicated_per_destination_cluster() {
        // One producer, two consumers in the same remote cluster → 1 copy.
        let mut b = DdgBuilder::new();
        let p = b.op(OpKind::IntAlu, &[]);
        let c1 = b.op(OpKind::IntAlu, &[p]);
        let c2 = b.op(OpKind::IntAlu, &[p]);
        let g = b.finish();
        let mut constraints = SchedConstraints::none();
        constraints.pinned.insert(p, 0);
        constraints.pinned.insert(c1, 1);
        constraints.pinned.insert(c2, 1);
        let s = ModuloScheduler::new(&machine())
            .schedule(&g, &constraints, &PrefMap::new(), Heuristic::PrefClus)
            .unwrap();
        assert_eq!(s.comm_ops(), 1);
        assert_valid(&g, &s, &machine());
    }

    #[test]
    fn recurrence_limits_ii() {
        let mut b = DdgBuilder::new();
        let acc = b.op(OpKind::FpMul, &[]); // 4-cycle producer
        b.recurrence(acc, acc, 1);
        let g = b.finish();
        let s = ModuloScheduler::new(&machine())
            .schedule(
                &g,
                &SchedConstraints::none(),
                &PrefMap::new(),
                Heuristic::MinComs,
            )
            .unwrap();
        assert_eq!(s.ii, 4);
    }

    #[test]
    fn empty_graph_schedules_trivially() {
        let g = Ddg::new();
        let s = ModuloScheduler::new(&machine())
            .schedule(
                &g,
                &SchedConstraints::none(),
                &PrefMap::new(),
                Heuristic::MinComs,
            )
            .unwrap();
        assert_eq!(s.ops.len(), 0);
        assert_eq!(s.ii, 1);
    }

    #[test]
    fn empty_graph_honors_constraint_minimum_ii() {
        // Regression: the empty-graph early return used to hardcode
        // ii = 1 without consulting the constraints.
        let g = Ddg::new();
        let constraints = SchedConstraints::none().with_min_ii(7);
        let s = ModuloScheduler::new(&machine())
            .schedule(&g, &constraints, &PrefMap::new(), Heuristic::MinComs)
            .unwrap();
        assert_eq!(s.ii, 7);
        assert!(s.span >= s.ii);
        // And a non-empty graph may not undercut it either.
        let g = simple_graph();
        let s = ModuloScheduler::new(&machine())
            .schedule(&g, &constraints, &PrefMap::new(), Heuristic::MinComs)
            .unwrap();
        assert!(s.ii >= 7);
        assert_valid(&g, &s, &machine());
    }

    #[test]
    fn register_pressure_cap_is_enforced_during_placement() {
        // A producer feeding a consumer across a long recurrence-forced
        // II stretch: with a generous register file the value simply
        // stays live across stages; with a 1-register cluster budget
        // the stage-crossing range is rejected during placement and the
        // schedule must adapt (or the II grow) — never silently
        // overflow.
        let mut b = DdgBuilder::new();
        // A latency-4 self-recurrence at distance 1 forces II ≥ 4.
        let acc = b.op(OpKind::FpMul, &[]);
        b.recurrence(acc, acc, 1);
        // A value consumed far later: producer → long dependent chain.
        let p = b.op(OpKind::IntAlu, &[]);
        let mut chain = p;
        for _ in 0..12 {
            chain = b.op(OpKind::IntMul, &[chain]);
        }
        let _sink = b.op(OpKind::IntAlu, &[p, chain]);
        let g = b.finish();

        let roomy = machine();
        let s = ModuloScheduler::new(&roomy)
            .schedule(
                &g,
                &SchedConstraints::none(),
                &PrefMap::new(),
                Heuristic::MinComs,
            )
            .unwrap();
        assert_valid(&g, &s, &roomy);
        let (_, roomy_stats) = ModuloScheduler::new(&roomy)
            .schedule_with_stats(
                &g,
                &SchedConstraints::none(),
                &PrefMap::new(),
                Heuristic::MinComs,
            )
            .unwrap();
        assert!(
            roomy_stats.max_reg_pressure >= 1,
            "the long-lived value must register as stage-crossing pressure"
        );

        let tight = machine().with_regs_per_cluster(1);
        let (ts, tight_stats) = ModuloScheduler::new(&tight)
            .schedule_with_stats(
                &g,
                &SchedConstraints::none(),
                &PrefMap::new(),
                Heuristic::MinComs,
            )
            .unwrap();
        assert_valid(&g, &ts, &tight);
        assert!(
            tight_stats.max_reg_pressure <= 1,
            "no accepted placement may exceed the register budget: {}",
            tight_stats.max_reg_pressure
        );
    }

    #[test]
    fn stats_report_the_search_effort() {
        let g = simple_graph();
        let (s, stats) = ModuloScheduler::new(&machine())
            .schedule_with_stats(
                &g,
                &SchedConstraints::none(),
                &PrefMap::new(),
                Heuristic::MinComs,
            )
            .unwrap();
        assert_eq!(stats.ii, s.ii);
        assert_eq!(stats.mii, 1);
        assert!(stats.iis_tried >= 1);
        assert!(stats.placement_attempts >= s.ops.len() as u64);
        assert_eq!(stats.ejections, 0);
        assert_eq!(stats.seeded_at, None);
    }

    /// One phase-1 placement pass of `g` at `ii` (local-hit latencies)
    /// on the baseline machine, with the counters it left behind.
    fn place_once(
        g: &Ddg,
        constraints: &SchedConstraints,
        prefs: &PrefMap,
        ii: u32,
        eject: bool,
    ) -> (Option<(Placement, bool)>, SearchCounters) {
        let m = machine();
        let dense = DenseDeps::new(g);
        let ctx = SchedCtx {
            ddg: g,
            dense: &dense,
            constraints,
            prefs,
            heuristic: Heuristic::PrefClus,
        };
        let lat = g
            .loads()
            .map(|l| (l, m.latency_of(LatencyClass::LocalHit)))
            .collect();
        let mut priority = PriorityOrder::from_dense(&dense);
        let mut placer = Placer::new(&m, ctx, lat);
        let order = priority.order(&placer.load_lat);
        let placed = placer
            .try_place(order, ii, eject)
            .map(|forced| (placer.take_placement(), forced));
        (placed, placer.counters)
    }

    #[test]
    fn ejecting_pass_equals_the_plain_pass_when_nothing_blocks() {
        let (g, none, prefs) = (simple_graph(), SchedConstraints::none(), PrefMap::new());
        let plain = place_once(&g, &none, &prefs, 1, false);
        assert!(matches!(plain.0, Some((_, false))));
        // Same placement, same attempts, nothing forced or ejected.
        assert_eq!(plain, place_once(&g, &none, &prefs, 1, true));
    }

    #[test]
    fn pinned_chain_with_an_intruder_needs_ejection_at_its_mii() {
        // A memory-anti chain pinned by its profile to cluster 0, plus a
        // higher-priority load preferring the same cluster: at the
        // chain's constrained MII the intruder holds the memory slot the
        // chain is short of, so only a forced placement keeps the II.
        let n_clusters = machine().n_clusters;
        let mut b = DdgBuilder::new();
        let chain: Vec<NodeId> = (0..n_clusters).map(|_| b.load(Width::W4)).collect();
        for w in chain.windows(2) {
            b.dep(w[0], w[1], DepKind::MemAnti, 0);
        }
        let intruder = b.load(Width::W4);
        (0..4).fold(intruder, |prev, _| b.op(OpKind::IntAlu, &[prev]));
        let g = b.finish();
        let mut prefs = PrefMap::new();
        for &l in chain.iter().chain([&intruder]) {
            let mut counts = vec![0; n_clusters];
            counts[0] = 100;
            prefs.insert(g.node(l).mem_id().unwrap(), PrefInfo::from_counts(counts));
        }
        let constraints = SchedConstraints::for_mdc(&find_chains(&g), &g, Some(&prefs), n_clusters);
        let mii = constrained_res_mii(&g, &machine(), &constraints);
        assert_eq!(mii, n_clusters as u32, "the chain bounds the II");

        let (plain, counters) = place_once(&g, &constraints, &prefs, mii, false);
        assert!(plain.is_none(), "the plain pass gives the MII away");
        assert!(counters.first_blocked.is_some());
        let (worklist, counters) = place_once(&g, &constraints, &prefs, mii, true);
        assert!(
            matches!(worklist, Some((_, true))),
            "ejection keeps the MII"
        );
        assert!(counters.ejections > 0);
    }

    #[test]
    fn a_forced_start_evicts_exactly_the_successors_it_outruns() {
        // An FP producer with two placed integer consumers: a near one in
        // its own cluster and a far one across the bus. The window the
        // bounded placement searches evicts nothing; one cycle past the
        // near consumer's bound evicts it alone, and one past the far
        // consumer's bound (which pays the copy) evicts both.
        let m = machine();
        let mut b = DdgBuilder::new();
        let p = b.op(OpKind::FpMul, &[]);
        let near = b.op(OpKind::IntAlu, &[p]);
        let far = b.op(OpKind::IntAlu, &[p]);
        let g = b.finish();
        let dense = DenseDeps::new(&g);
        let (none, prefs) = (SchedConstraints::none(), PrefMap::new());
        let ctx = SchedCtx {
            ddg: &g,
            dense: &dense,
            constraints: &none,
            prefs: &prefs,
            heuristic: Heuristic::MinComs,
        };
        let mut placer = Placer::new(&m, ctx, NodeMap::new());
        placer.reset(4);
        assert!(placer.commit(near, 0, 6) && placer.commit(far, 1, 12));
        let far_bound = 12 - 4 - i64::from(m.reg_buses.latency);
        assert_eq!(placer.start_bounds(p, 0), Some((0, 2)));

        let mut evicted_at = |start: i64| {
            let mark = placer.mrt.checkpoint();
            let mut rec = EvictionRecord::default();
            placer.evict_conflicts(p, 0, u32::try_from(start).unwrap(), &mut rec);
            let evicted: Vec<NodeId> = rec.evicted().collect();
            placer.unevict(&mut rec, mark);
            evicted
        };
        for start in 0..=2 {
            assert_eq!(evicted_at(start), [], "start {start}");
        }
        assert_eq!(evicted_at(3), [near]);
        assert_eq!(evicted_at(far_bound), [near]);
        assert_eq!(evicted_at(far_bound + 1), [near, far]);
    }

    #[test]
    fn seeding_skips_the_low_ii_scan() {
        // An accurate seed must reproduce the cold result exactly, and
        // a seed at or below the MII is ignored (the bound stays
        // sound).
        let mut b = DdgBuilder::new();
        for _ in 0..9 {
            b.load(Width::W4);
        }
        let g = b.finish();
        let cold = ModuloScheduler::new(&machine())
            .schedule(
                &g,
                &SchedConstraints::none(),
                &PrefMap::new(),
                Heuristic::MinComs,
            )
            .unwrap();
        let (warm, stats) = ModuloScheduler::new(&machine())
            .with_ii_seed(Some(cold.ii))
            .schedule_with_stats(
                &g,
                &SchedConstraints::none(),
                &PrefMap::new(),
                Heuristic::MinComs,
            )
            .unwrap();
        assert_eq!(warm, cold);
        assert_eq!(stats.seeded_at, None, "seed − slack is clamped to the MII");
        let (low, stats) = ModuloScheduler::new(&machine())
            .with_ii_seed(Some(1))
            .schedule_with_stats(
                &g,
                &SchedConstraints::none(),
                &PrefMap::new(),
                Heuristic::MinComs,
            )
            .unwrap();
        assert_eq!(low, cold);
        assert_eq!(stats.seeded_at, None);
    }

    #[test]
    fn mincoms_postpass_maximizes_local_accesses() {
        // A single memory op whose profile prefers cluster 3; MinComs
        // places it anywhere, the post-pass must relabel its cluster to 3.
        let mut b = DdgBuilder::new();
        let l = b.load(Width::W4);
        let _ = b.op(OpKind::IntAlu, &[l]);
        let g = b.finish();
        let mut prefs = PrefMap::new();
        prefs.insert(
            g.node(l).mem_id().unwrap(),
            PrefInfo::from_counts(vec![0, 0, 0, 100]),
        );
        let s = ModuloScheduler::new(&machine())
            .schedule(&g, &SchedConstraints::none(), &prefs, Heuristic::MinComs)
            .unwrap();
        assert_eq!(s.op(l).cluster, 3);
        assert_valid(&g, &s, &machine());
    }

    #[test]
    fn sync_edges_are_honored() {
        let mut b = DdgBuilder::new();
        let cons = b.op(OpKind::IntAlu, &[]);
        let st = b.store(Width::W4, &[]);
        b.dep(cons, st, DepKind::Sync, 0);
        let g = b.finish();
        let s = ModuloScheduler::new(&machine())
            .schedule(
                &g,
                &SchedConstraints::none(),
                &PrefMap::new(),
                Heuristic::MinComs,
            )
            .unwrap();
        assert!(s.op(st).start >= s.op(cons).start);
        assert_valid(&g, &s, &machine());
    }

    #[test]
    fn figure3_after_ddgt_schedules_on_four_clusters() {
        // End-to-end: the paper's Figure 3 graph through DDGT, then
        // scheduled; all dependences and pins must hold.
        let mut b = DdgBuilder::new();
        let n1 = b.load(Width::W4);
        let n2 = b.load(Width::W4);
        let n3 = b.store(Width::W4, &[]);
        let n4 = b.store(Width::W4, &[n1]);
        let _n5 = b.op(OpKind::IntAlu, &[n2]);
        b.dep(n1, n3, DepKind::MemAnti, 0);
        b.dep(n1, n4, DepKind::MemAnti, 0);
        b.dep(n2, n3, DepKind::MemAnti, 0);
        b.dep(n2, n4, DepKind::MemAnti, 0);
        b.dep(n3, n4, DepKind::MemOut, 0);
        b.dep(n4, n3, DepKind::MemOut, 1);
        b.dep(n3, n1, DepKind::MemFlow, 1);
        b.dep(n4, n2, DepKind::MemFlow, 1);
        let mut g = b.finish();
        let report = transform(&mut g, 4);
        let constraints = SchedConstraints::for_ddgt(&report);
        let s = ModuloScheduler::new(&machine())
            .schedule(&g, &constraints, &PrefMap::new(), Heuristic::MinComs)
            .unwrap();
        assert_valid(&g, &s, &machine());
        // Loads stayed free (not replicated), stores cover all clusters.
        for group in &report.replica_groups {
            let mut cl: Vec<usize> = group.instances.iter().map(|&i| s.op(i).cluster).collect();
            cl.sort_unstable();
            assert_eq!(cl, vec![0, 1, 2, 3]);
        }
    }

    /// Deterministic pseudo-random gain matrices with entries in
    /// `0..modulus` for the assignment tests (SplitMix64).
    fn gain_matrix(n: usize, seed: u64, modulus: u64) -> Vec<Vec<u64>> {
        let mut state = seed;
        let mut next = move || {
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        };
        (0..n)
            .map(|_| (0..n).map(|_| next() % modulus).collect())
            .collect()
    }

    /// Visits every permutation of `slice[k..]`, the slice as given first:
    /// swap each element into position `k`, recurse on `k + 1`, undo.
    fn permute(slice: &mut [usize], k: usize, visit: &mut impl FnMut(&[usize])) {
        if k == slice.len() {
            visit(slice);
            return;
        }
        for i in k..slice.len() {
            slice.swap(k, i);
            permute(slice, k + 1, visit);
            slice.swap(k, i);
        }
    }

    #[test]
    fn descent_matches_the_brute_force_first_optimum() {
        // Entries in 0..=3 make ties common. The reference is the scan
        // MinComs used to run: identity at score 0, replace only on `>`.
        for case in 0..1400u64 {
            let n = 1 + (case % 7) as usize;
            let gain = gain_matrix(n, case, 4);
            let mut best: Vec<usize> = (0..n).collect();
            let mut best_score = 0u64;
            let mut ids: Vec<usize> = (0..n).collect();
            permute(&mut ids, 0, &mut |p| {
                let score: u64 = (0..n).map(|v| gain[v][p[v]]).sum();
                if score > best_score {
                    best_score = score;
                    best = p.to_vec();
                }
            });
            assert_eq!(first_optimal_assignment(&gain), best, "case {case}");
            assert_eq!(max_assignment(&gain, &ids), best_score, "case {case}");
        }
    }

    #[test]
    fn large_machine_assignment_is_fast_and_valid() {
        // 16! permutations are unenumerable; the descent must find a
        // planted 16-cluster optimum instantly, and keep the identity
        // when nothing is gained.
        let n = 16;
        let mut gain = gain_matrix(n, 7, 1000);
        for (v, row) in gain.iter_mut().enumerate() {
            row[(v + 3) % n] += 1_000_000; // planted optimum: shift by 3
        }
        let perm = first_optimal_assignment(&gain);
        for (v, &p) in perm.iter().enumerate() {
            assert_eq!(p, (v + 3) % n, "virtual cluster {v}");
        }
        let identity: Vec<usize> = (0..n).collect();
        assert_eq!(first_optimal_assignment(&vec![vec![0; n]; n]), identity);
    }
}
