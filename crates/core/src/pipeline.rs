//! The end-to-end pipeline: coherence pass → cluster-aware modulo
//! scheduling → cycle-level simulation.

use std::collections::HashMap;
use std::fmt;
use std::sync::{Arc, Mutex};

use distvliw_arch::MachineConfig;
use distvliw_coherence::{find_chains, transform, SchedConstraints};
use distvliw_ir::{profile::preferred_clusters, Ddg, LoopKernel, Suite};
use distvliw_sched::{
    Heuristic, ModuloScheduler, SchedStats, Schedule, ScheduleError, SearchRecord,
};
use distvliw_sim::{simulate_kernel_detailed, ClusterUsage, SimOptions, SimStats};

use crate::cachekey;

/// Which coherence solution the pipeline applies (paper Section 3).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Solution {
    /// No restriction: the paper's optimistic (unsound) baseline, where
    /// memory instructions are freely scheduled in any cluster.
    Free,
    /// Memory Dependent Chains.
    Mdc,
    /// Data Dependence Graph Transformations (store replication +
    /// load–store synchronization).
    Ddgt,
    /// The per-loop hybrid the paper sketches as future work (Section 6):
    /// "the execution time of a loop with both solutions could be
    /// estimated at compile time and the best solution could be chosen".
    /// Both solutions are compiled and estimated; the cheaper one wins,
    /// loop by loop.
    Hybrid,
}

impl fmt::Display for Solution {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Solution::Free => f.write_str("Free"),
            Solution::Mdc => f.write_str("MDC"),
            Solution::Ddgt => f.write_str("DDGT"),
            Solution::Hybrid => f.write_str("Hybrid"),
        }
    }
}

impl std::str::FromStr for Solution {
    type Err = String;

    /// Parses the case-insensitive solution name used in request bodies
    /// and CLI flags (`free`, `mdc`, `ddgt`, `hybrid`).
    fn from_str(s: &str) -> Result<Self, String> {
        match s.to_ascii_lowercase().as_str() {
            "free" => Ok(Solution::Free),
            "mdc" => Ok(Solution::Mdc),
            "ddgt" => Ok(Solution::Ddgt),
            "hybrid" => Ok(Solution::Hybrid),
            other => Err(format!(
                "unknown solution `{other}` (expected free, mdc, ddgt or hybrid)"
            )),
        }
    }
}

/// Pipeline-level errors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PipelineError {
    /// The scheduler failed on a kernel.
    Schedule {
        /// Kernel name.
        kernel: String,
        /// Underlying error.
        error: ScheduleError,
    },
    /// A kernel failed validation.
    Kernel {
        /// Kernel name.
        kernel: String,
        /// Description of the defect.
        error: String,
    },
    /// The static checker rejected an emitted schedule — the scheduler
    /// produced something the independent verifier (`distvliw-check`)
    /// can prove illegal, which is always a scheduler bug.
    Check {
        /// Kernel name.
        kernel: String,
        /// Per-kind summary plus every violation, pretty-printed.
        report: String,
    },
    /// A grid cell failed: the underlying error wrapped with the
    /// coordinates of the first cell (in cell order) it surfaced in, so
    /// a failure deep in a 10k-cell grid names its cell instead of only
    /// its kernel.
    Cell {
        /// Cluster count of the failing cell's machine.
        n_clusters: usize,
        /// Memory-bus configuration of the failing cell's machine.
        mem_buses: distvliw_arch::BusConfig,
        /// Coherence solution of the failing cell.
        solution: Solution,
        /// Cluster-assignment heuristic of the failing cell.
        heuristic: Heuristic,
        /// Suite the failing kernel belongs to.
        suite: String,
        /// The underlying pipeline failure.
        source: Box<PipelineError>,
    },
}

impl fmt::Display for PipelineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PipelineError::Schedule { kernel, error } => {
                write!(f, "scheduling `{kernel}` failed: {error}")
            }
            PipelineError::Kernel { kernel, error } => {
                write!(f, "invalid kernel `{kernel}`: {error}")
            }
            PipelineError::Check { kernel, report } => {
                write!(f, "schedule for `{kernel}` failed verification: {report}")
            }
            PipelineError::Cell {
                n_clusters,
                mem_buses,
                solution,
                heuristic,
                suite,
                source,
            } => {
                write!(
                    f,
                    "cell ({n_clusters} clusters, {}@{} buses, {solution}, {heuristic}, {suite}): {source}",
                    mem_buses.count, mem_buses.latency
                )
            }
        }
    }
}

impl std::error::Error for PipelineError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            PipelineError::Cell { source, .. } => Some(source),
            _ => None,
        }
    }
}

/// Pipeline configuration. A caller that wants paper Section 6 code
/// specialization passes kernels through
/// [`distvliw_coherence::specialize_kernel`] first.
#[derive(Debug, Clone, Copy)]
pub struct PipelineOptions {
    /// Cache-sensitive latency assignment in the scheduler.
    pub relax_latencies: bool,
    /// Run the independent static verifier (`distvliw-check`) on every
    /// compiled schedule and fail the compile on any violation. Debug
    /// builds verify unconditionally (every test run exercises the
    /// checker); this flag extends the guarantee to release builds — the
    /// golden tests and `serve --check` turn it on.
    pub check: bool,
}

impl Default for PipelineOptions {
    fn default() -> Self {
        PipelineOptions {
            relax_latencies: true,
            check: false,
        }
    }
}

/// Result of compiling and simulating one loop kernel.
#[derive(Debug, Clone)]
pub struct KernelRun {
    /// Kernel name.
    pub name: String,
    /// The initiation interval achieved.
    pub ii: u32,
    /// Schedule length (pipeline fill).
    pub span: u32,
    /// Static communication (copy) operations per iteration.
    pub static_comm_ops: usize,
    /// Scheduler search telemetry (attempts, ejections, II seed).
    pub sched: SchedStats,
    /// Simulation statistics (all invocations).
    pub stats: SimStats,
    /// Per-cluster resource usage (all invocations).
    pub cluster: ClusterUsage,
}

/// Scheduler search effort aggregated over a suite (or any set of
/// kernel runs): the ejection/attempt trajectory the sweep report
/// surfaces.
///
/// These are *effort* numbers, not pure functions of the inputs: a
/// pipeline whose schedule memo is warm (an earlier run of the same
/// configuration on the same `Pipeline` instance) legitimately reports
/// the effort of a search seeded at the remembered II — fewer attempts
/// and a nonzero `seeded_kernels` — for the byte-identical schedule.
/// Compare effort across runs only from a fresh `Pipeline` (as
/// `experiments::run_direct` does for every compile unit).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SchedTotals {
    /// Placement attempts across all kernels.
    pub placement_attempts: u64,
    /// Ops evicted by the ejection scheduler across all kernels.
    pub ejections: u64,
    /// Initiation intervals tried across all kernels.
    pub iis_tried: u64,
    /// Kernels whose search opened at a profile seed.
    pub seeded_kernels: u64,
    /// Peak stage-aware register pressure over all kernels.
    pub max_reg_pressure: u32,
}

impl SchedTotals {
    fn absorb(&mut self, s: &SchedStats) {
        self.placement_attempts += s.placement_attempts;
        self.ejections += s.ejections;
        self.iis_tried += u64::from(s.iis_tried);
        self.seeded_kernels += u64::from(s.seeded_at.is_some());
        self.max_reg_pressure = self.max_reg_pressure.max(s.max_reg_pressure);
    }
}

/// Folds another aggregate in: counters add, the register-pressure peak
/// takes the maximum — the same fold the private per-kernel `absorb`
/// applies, so a new counter field added here cannot be silently
/// dropped from one of the two sums.
impl std::ops::AddAssign<&SchedTotals> for SchedTotals {
    fn add_assign(&mut self, other: &SchedTotals) {
        self.placement_attempts += other.placement_attempts;
        self.ejections += other.ejections;
        self.iis_tried += other.iis_tried;
        self.seeded_kernels += other.seeded_kernels;
        self.max_reg_pressure = self.max_reg_pressure.max(other.max_reg_pressure);
    }
}

/// Result of running a whole benchmark suite.
#[derive(Debug, Clone)]
pub struct SuiteStats {
    /// Benchmark name.
    pub name: String,
    /// Per-kernel results.
    pub kernels: Vec<KernelRun>,
    /// Aggregate over all kernels.
    pub total: SimStats,
    /// Per-cluster usage aggregated over all kernels (the imbalance
    /// surface: which clusters issued the accesses, where the violations
    /// were attributed, how many bus grants the suite consumed).
    pub cluster: ClusterUsage,
    /// Scheduler search effort aggregated over all kernels.
    pub sched: SchedTotals,
}

impl SuiteStats {
    /// Total cycles of the suite.
    #[must_use]
    pub fn total_cycles(&self) -> u64 {
        self.total.total_cycles()
    }

    /// Aggregate local hit ratio.
    #[must_use]
    pub fn local_hit_ratio(&self) -> f64 {
        self.total.local_hit_ratio()
    }
}

impl std::ops::Deref for SuiteStats {
    type Target = SimStats;

    fn deref(&self) -> &SimStats {
        &self.total
    }
}

/// One kernel's compile-phase output: the (transformed) kernel the
/// simulator must execute together with its schedule and the search
/// telemetry that produced it. Everything here is a pure function
/// of the kernel, the coherence solution, the heuristic and the
/// machine's *scheduler projection*
/// ([`MachineConfig::sched_canonical_bytes`]), so one artifact replays
/// under every memory-system variant that shares the projection.
#[derive(Debug, Clone)]
pub struct KernelArtifact {
    /// The kernel as scheduled: the DDGT graph transformation applied for
    /// [`Solution::Ddgt`] (store replicas and synchronization edges are
    /// part of the graph the schedule refers to).
    pub kernel: LoopKernel,
    /// The modulo schedule.
    pub schedule: Schedule,
    /// Scheduler search telemetry of the (cold) compile.
    pub sched: SchedStats,
}

/// The compile phase of a whole suite: one [`KernelArtifact`] per kernel,
/// in suite order, plus the interleave the suite was compiled under.
/// Produced by [`Pipeline::compile_suite`], replayed by
/// [`Pipeline::simulate_artifact`].
#[derive(Debug, Clone)]
pub struct SuiteArtifact {
    /// Suite name.
    pub name: String,
    /// The suite's interleaving factor the compile machine used (paper
    /// Table 1); the sim machine applies the same one.
    pub interleave_bytes: u64,
    /// Per-kernel artifacts, in suite order.
    pub kernels: Vec<KernelArtifact>,
}

/// One solved scheduling problem: the schedule and the pass-by-pass
/// record of the search that found it.
type Solved = Arc<(Schedule, SearchRecord)>;

/// The schedule memo: every successful search, stored under the full
/// configuration of its scheduling problem (machine projection, graph,
/// constraints, profile, heuristic — see `seed_key`), so a repeat of
/// the problem skips the scheduler altogether. The scheduler is
/// deterministic, so a stored schedule is byte for byte the one a
/// repeat search would find. A hit reports the stats a search seeded
/// with the stored II would ([`SearchRecord::stats`] at that II), so the
/// effort a pipeline reports does not depend on whether a repeat ran or
/// was remembered. Shared across the pipeline's clones and threads; it
/// lives in memory and lasts one process, since a schedule is a pure
/// function of its key. It holds at most `MEMO_CAPACITY` entries and
/// starts over when a new one would exceed that, so a daemon fed
/// endless distinct machines stays bounded; losing entries costs
/// search time, never a schedule byte.
#[derive(Debug, Default)]
pub struct ScheduleMemo {
    map: Mutex<HashMap<[u8; 16], Solved>>,
}

impl ScheduleMemo {
    /// An empty memo.
    #[must_use]
    pub fn new() -> Self {
        ScheduleMemo::default()
    }

    fn get(&self, key: [u8; 16]) -> Option<Solved> {
        self.map
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .get(&key)
            .cloned()
    }

    fn record(&self, key: [u8; 16], solved: Solved) {
        let mut map = self
            .map
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        if map.len() >= MEMO_CAPACITY && !map.contains_key(&key) {
            map.clear();
        }
        map.insert(key, solved);
    }
}

/// The most entries a [`ScheduleMemo`] holds. An entry costs about
/// 180 bytes of map slot, `Arc` and fixed fields, about 34 bytes per
/// scheduled op (its `BTreeMap` entry), 24 per copy and 32 per II the
/// search tried. Over every problem the bundled suites pose on the
/// figure, NOBAL and sweep machines (660 distinct) that averages about
/// 3 KB, and the largest (a 613-op DDGT graph) is about 37 KB: a full
/// memo holds about 6 MB of typical entries and stays under about
/// 75 MB even if every entry were the largest. 2048 is still about three
/// times the problems the whole catalog poses.
const MEMO_CAPACITY: usize = 1 << 11;

/// The full-configuration key of one scheduling problem. Everything the
/// scheduler's output depends on is encoded — the machine's *scheduler
/// projection* ([`MachineConfig::sched_canonical_bytes`], the same
/// invariant the sweep's compile-once factoring relies on, so machines
/// differing only in simulation fields share their seeds), graph
/// topology (the same `op_tag`/`dep_tag` encoding the result-cache
/// digest uses), constraints, profile preferences, heuristic and
/// options — then compressed to the cache layer's 128-bit two-FNV
/// fingerprint, so a memo entry is never returned for a different
/// problem (it would be a schedule of another graph, which is why a
/// single 64-bit hash is not enough here either).
fn seed_key(
    machine: &MachineConfig,
    ddg: &Ddg,
    constraints: &SchedConstraints,
    prefs: &distvliw_ir::PrefMap,
    heuristic: Heuristic,
    relax_latencies: bool,
) -> [u8; 16] {
    let mut bytes = machine.sched_canonical_bytes();
    let u64le = |bytes: &mut Vec<u8>, v: u64| bytes.extend_from_slice(&v.to_le_bytes());
    u64le(&mut bytes, ddg.node_count() as u64);
    for (_, op) in ddg.iter() {
        bytes.push(cachekey::op_tag(op.kind));
        match op.mem_id() {
            Some(m) => {
                bytes.push(0);
                u64le(&mut bytes, u64::from(m.0));
            }
            None => bytes.push(0xff),
        }
    }
    for (_, d) in ddg.deps() {
        u64le(&mut bytes, u64::from(d.src.0));
        u64le(&mut bytes, u64::from(d.dst.0));
        bytes.push(cachekey::dep_tag(d.kind));
        u64le(&mut bytes, u64::from(d.distance));
    }
    for (n, g) in &constraints.colocate {
        u64le(&mut bytes, u64::from(n.0));
        u64le(&mut bytes, u64::from(*g));
    }
    for (g, c) in &constraints.group_target {
        u64le(&mut bytes, u64::from(*g));
        u64le(&mut bytes, *c as u64);
    }
    for (n, c) in &constraints.pinned {
        u64le(&mut bytes, u64::from(n.0));
        u64le(&mut bytes, *c as u64);
    }
    u64le(&mut bytes, u64::from(constraints.min_ii));
    for (m, info) in prefs {
        u64le(&mut bytes, u64::from(m.0));
        for &c in info.counts() {
            u64le(&mut bytes, c);
        }
    }
    bytes.push(heuristic as u8);
    bytes.push(u8::from(relax_latencies));
    cachekey::digest_fingerprint(&bytes)
}

/// The end-to-end compile-and-simulate pipeline for one machine.
#[derive(Debug, Clone)]
pub struct Pipeline {
    machine: MachineConfig,
    options: PipelineOptions,
    /// Solved scheduling problems, shared by all clones of this
    /// pipeline.
    memo: Arc<ScheduleMemo>,
}

impl Pipeline {
    /// Creates a pipeline with default options.
    ///
    /// # Panics
    ///
    /// Panics if the machine configuration is invalid.
    #[must_use]
    pub fn new(machine: MachineConfig) -> Self {
        machine.validate().expect("valid machine configuration");
        Pipeline {
            machine,
            options: PipelineOptions::default(),
            memo: Arc::new(ScheduleMemo::new()),
        }
    }

    /// Replaces the pipeline options.
    #[must_use]
    pub fn with_options(mut self, options: PipelineOptions) -> Self {
        self.options = options;
        self
    }

    /// Replaces the schedule memo with a shared one. The scheduler is
    /// deterministic, so a warm memo changes only the search *effort*
    /// reported (that of a seeded search: fewer `iis_tried`, a nonzero
    /// `seeded_at`), never a schedule byte — pinned by
    /// `warm_memo_reproduces_cold_run`.
    #[must_use]
    pub fn with_memo(mut self, memo: Arc<ScheduleMemo>) -> Self {
        self.memo = memo;
        self
    }

    /// The machine this pipeline targets.
    #[must_use]
    pub fn machine(&self) -> &MachineConfig {
        &self.machine
    }

    /// Compiles and simulates every kernel of `suite` under the given
    /// solution and heuristic: [`Pipeline::compile_suite`], then
    /// [`Pipeline::simulate_artifact`]. The machine's interleaving factor
    /// is set from the suite (paper Table 1). [`Solution::Hybrid`] runs
    /// MDC and DDGT and keeps the cheaper run of each loop
    /// ([`derive_hybrid`]).
    ///
    /// One suite run is one cell of an experiment grid, so its kernels
    /// run in order on the calling thread; the two cell executors fan
    /// out over cells instead ([`crate::experiments::run_direct`], which
    /// compiles each distinct schedule once and replays it per cell, and
    /// the serving layer's `run_cells`).
    ///
    /// # Errors
    ///
    /// Returns the first kernel (in suite order, MDC before DDGT for the
    /// hybrid) that fails validation or scheduling; nothing is
    /// simulated then.
    pub fn run_suite(
        &self,
        suite: &Suite,
        solution: Solution,
        heuristic: Heuristic,
    ) -> Result<SuiteStats, PipelineError> {
        if solution == Solution::Hybrid {
            let mdc = self.run_suite(suite, Solution::Mdc, heuristic)?;
            let ddgt = self.run_suite(suite, Solution::Ddgt, heuristic)?;
            return Ok(derive_hybrid(&mdc, &ddgt));
        }
        Ok(self.simulate_artifact(&self.compile_suite(suite, solution, heuristic)?))
    }

    /// Compiles and simulates a single kernel with the pipeline's machine
    /// (using its configured interleave).
    ///
    /// # Panics
    ///
    /// Panics on [`Solution::Hybrid`], as [`Pipeline::compile_suite`]
    /// does: the hybrid is a selection over whole MDC and DDGT runs.
    ///
    /// # Errors
    ///
    /// Returns the kernel's validation or scheduling failure.
    pub fn run_kernel(
        &self,
        kernel: &LoopKernel,
        solution: Solution,
        heuristic: Heuristic,
    ) -> Result<KernelRun, PipelineError> {
        assert!(
            solution != Solution::Hybrid,
            "hybrid is derived from MDC and DDGT runs, not compiled"
        );
        let artifact = self.compile_kernel_on(&self.machine, kernel, solution, heuristic)?;
        Ok(self.simulate_kernel_artifact(&self.machine, &artifact))
    }

    /// The compile phase for one kernel: validation, the profile and
    /// coherence passes, and the modulo schedule. `solution` must be
    /// concrete ([`Solution::Hybrid`] is a selection over MDC and DDGT
    /// runs, not a compilation).
    fn compile_kernel_on(
        &self,
        machine: &MachineConfig,
        kernel: &LoopKernel,
        solution: Solution,
        heuristic: Heuristic,
    ) -> Result<KernelArtifact, PipelineError> {
        let mut span = distvliw_obs::Span::enter("compile");
        span.field_str("kernel", kernel.name.clone());
        kernel.validate().map_err(|e| PipelineError::Kernel {
            kernel: kernel.name.clone(),
            error: e.to_string(),
        })?;

        let mut kernel = kernel.clone();

        // Profile pass: preferred clusters under the profile input.
        let prefs = preferred_clusters(&kernel, machine.n_clusters, |addr| {
            machine.home_cluster(addr)
        });

        // Coherence pass.
        let constraints = match solution {
            Solution::Free => SchedConstraints::none(),
            Solution::Mdc => {
                let chains = find_chains(&kernel.ddg);
                let pref_arg = (heuristic == Heuristic::PrefClus).then_some(&prefs);
                SchedConstraints::for_mdc(&chains, &kernel.ddg, pref_arg, machine.n_clusters)
            }
            Solution::Ddgt => {
                let report = transform(&mut kernel.ddg, machine.n_clusters);
                SchedConstraints::for_ddgt(&report)
            }
            Solution::Hybrid => unreachable!("hybrid is not compiled"),
        };

        // Cluster-aware modulo scheduling, or the schedule a prior run
        // of this exact configuration found. A hit reports the stats of
        // a search seeded at the remembered II, as a repeat search
        // would, and counts them the same way.
        let key = seed_key(
            machine,
            &kernel.ddg,
            &constraints,
            &prefs,
            heuristic,
            self.options.relax_latencies,
        );
        let memoized = self.memo.get(key);
        span.field_str("memo", if memoized.is_some() { "hit" } else { "miss" });
        let (schedule, sched) = match memoized {
            Some(solved) => {
                let (schedule, record) = &*solved;
                let stats = record.stats(Some(record.ii));
                distvliw_sched::count_schedule(&stats, true);
                (schedule.clone(), stats)
            }
            None => {
                let (schedule, record) = ModuloScheduler::new(machine)
                    .with_latency_relaxation(self.options.relax_latencies)
                    .schedule_with_record(&kernel.ddg, &constraints, &prefs, heuristic)
                    .map_err(|error| PipelineError::Schedule {
                        kernel: kernel.name.clone(),
                        error,
                    })?;
                let stats = record.stats(None);
                self.memo.record(key, Arc::new((schedule.clone(), record)));
                (schedule, stats)
            }
        };
        span.field_u64("ii", u64::from(schedule.ii));

        // Translation validation: re-verify the schedule from first
        // principles with the independent checker. Debug builds always
        // check (every test run doubles as a checker run); release
        // builds check when `options.check` is set.
        if self.options.check || cfg!(debug_assertions) {
            let report = distvliw_check::check_schedule(
                &kernel.ddg,
                machine,
                &constraints,
                heuristic,
                &schedule,
            );
            check_violations().add(report.len() as u64);
            if !report.is_clean() {
                debug_assert!(false, "checker rejected `{}`: {report}", kernel.name);
                return Err(PipelineError::Check {
                    kernel: kernel.name.clone(),
                    report: report.to_string(),
                });
            }
        }

        Ok(KernelArtifact {
            kernel,
            schedule,
            sched,
        })
    }

    /// The sim phase for one compiled kernel: cycle-level simulation of
    /// the artifact's schedule on `machine`, which may differ from the
    /// compile machine in simulation-only fields (memory-bus count,
    /// cache geometry, Attraction Buffers — anything outside
    /// [`MachineConfig::sched_canonical_bytes`]).
    fn simulate_kernel_artifact(
        &self,
        machine: &MachineConfig,
        artifact: &KernelArtifact,
    ) -> KernelRun {
        let mut span = distvliw_obs::Span::enter("sim");
        span.field_str("kernel", artifact.kernel.name.clone());
        let (stats, cluster) =
            simulate_kernel_detailed(machine, &artifact.kernel, &artifact.schedule, SimOptions);
        KernelRun {
            name: artifact.kernel.name.clone(),
            ii: artifact.schedule.ii,
            span: artifact.schedule.span,
            static_comm_ops: artifact.schedule.comm_ops(),
            sched: artifact.sched,
            stats,
            cluster,
        }
    }

    /// The compile phase of [`Pipeline::run_suite`]: schedules every
    /// kernel of `suite`, in suite order, under the given concrete
    /// solution and heuristic without simulating anything. The artifact replays
    /// via [`Pipeline::simulate_artifact`] on any machine whose
    /// scheduler projection ([`MachineConfig::sched_canonical_bytes`],
    /// after applying the suite's interleave) equals this pipeline's —
    /// [`crate::experiments::run_direct`] uses this to compile once per
    /// projection and simulate per cell.
    ///
    /// # Panics
    ///
    /// Panics on [`Solution::Hybrid`]: the hybrid is a per-loop
    /// *selection* over the MDC and DDGT runs (see [`derive_hybrid`]),
    /// not a compilation.
    ///
    /// # Errors
    ///
    /// Returns the first kernel (in suite order) that fails validation
    /// or scheduling.
    pub fn compile_suite(
        &self,
        suite: &Suite,
        solution: Solution,
        heuristic: Heuristic,
    ) -> Result<SuiteArtifact, PipelineError> {
        assert!(
            solution != Solution::Hybrid,
            "hybrid is derived from MDC and DDGT runs, not compiled"
        );
        let machine = self.machine.clone().with_interleave(suite.interleave_bytes);
        let kernels = suite
            .kernels
            .iter()
            .map(|kernel| self.compile_kernel_on(&machine, kernel, solution, heuristic))
            .collect::<Result<Vec<_>, _>>()?;
        Ok(SuiteArtifact {
            name: suite.name.clone(),
            interleave_bytes: suite.interleave_bytes,
            kernels,
        })
    }

    /// The sim phase of [`Pipeline::run_suite`]: replays a compiled
    /// suite artifact on this pipeline's machine (with the artifact's
    /// interleave applied) and merges the per-kernel results exactly
    /// like `run_suite` — `compile_suite` + `simulate_artifact` on the
    /// same machine is byte-identical to one `run_suite` call.
    #[must_use]
    pub fn simulate_artifact(&self, artifact: &SuiteArtifact) -> SuiteStats {
        let machine = self
            .machine
            .clone()
            .with_interleave(artifact.interleave_bytes);
        let runs = artifact
            .kernels
            .iter()
            .map(|kernel| self.simulate_kernel_artifact(&machine, kernel))
            .collect();
        merge_runs(&artifact.name, runs)
    }
}

/// Folds per-kernel runs (in kernel order) into suite statistics —
/// the one merge behind [`Pipeline::run_suite`],
/// [`Pipeline::simulate_artifact`] and [`derive_hybrid`].
fn merge_runs(name: &str, kernels: Vec<KernelRun>) -> SuiteStats {
    let mut total = SimStats::default();
    let mut cluster = ClusterUsage::default();
    let mut sched = SchedTotals::default();
    for run in &kernels {
        total += run.stats;
        cluster += &run.cluster;
        sched.absorb(&run.sched);
    }
    SuiteStats {
        name: name.to_string(),
        kernels,
        total,
        cluster,
        sched,
    }
}

/// Derives the per-loop hybrid (paper Section 6) from the pure MDC and
/// DDGT runs of the same suite: kernel by kernel, the cheaper run wins
/// (ties go to MDC), and the winners fold into suite statistics. The
/// estimate is the cycle-level model, standing in for the paper's
/// compile-time cost model. This is the one definition of the hybrid:
/// `Pipeline::run_suite(Hybrid)` calls it, and so do the factored sweep
/// and the serving layer's `GET /sweep`, which re-compile and
/// re-simulate nothing for the hybrid rows.
///
/// # Panics
///
/// Panics if the two runs disagree on kernel count (they must come from
/// the same suite).
#[must_use]
pub fn derive_hybrid(mdc: &SuiteStats, ddgt: &SuiteStats) -> SuiteStats {
    assert_eq!(
        mdc.kernels.len(),
        ddgt.kernels.len(),
        "hybrid derivation needs runs of the same suite"
    );
    let winners = mdc
        .kernels
        .iter()
        .zip(&ddgt.kernels)
        .map(|(m, d)| if mdc_wins(m, d) { m } else { d }.clone())
        .collect();
    merge_runs(&mdc.name, winners)
}

/// The per-loop hybrid's choice between one kernel's MDC and DDGT runs:
/// fewer total cycles wins, ties go to MDC.
fn mdc_wins(mdc: &KernelRun, ddgt: &KernelRun) -> bool {
    mdc.stats.total_cycles() <= ddgt.stats.total_cycles()
}

/// The pipeline's checker-hook counter in the global registry.
pub(crate) fn check_violations() -> distvliw_obs::Counter {
    distvliw_obs::global().counter(
        "check_violations_total",
        "schedule-checker violations found by the pipeline hook",
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn machine() -> MachineConfig {
        MachineConfig::paper_baseline()
    }

    #[test]
    fn pipeline_runs_a_benchmark_suite() {
        let suite = distvliw_mediabench::suite("gsmdec").unwrap();
        let p = Pipeline::new(machine());
        let stats = p
            .run_suite(&suite, Solution::Mdc, Heuristic::PrefClus)
            .unwrap();
        assert_eq!(stats.kernels.len(), suite.kernels.len());
        assert!(stats.total_cycles() > 0);
        assert!(stats.total.accesses.total() > 0);
        assert_eq!(stats.total.coherence_violations, 0);
    }

    #[test]
    fn all_solutions_and_heuristics_run() {
        let suite = distvliw_mediabench::suite("jpegenc").unwrap();
        let p = Pipeline::new(machine());
        for solution in [Solution::Free, Solution::Mdc, Solution::Ddgt] {
            for heuristic in [Heuristic::PrefClus, Heuristic::MinComs] {
                let stats = p.run_suite(&suite, solution, heuristic).unwrap();
                assert!(stats.total_cycles() > 0, "{solution}/{heuristic}");
            }
        }
    }

    #[test]
    fn mdc_and_ddgt_are_always_coherent() {
        let suite = distvliw_mediabench::suite("pgpdec").unwrap();
        let p = Pipeline::new(machine());
        for solution in [Solution::Mdc, Solution::Ddgt] {
            for heuristic in [Heuristic::PrefClus, Heuristic::MinComs] {
                let stats = p.run_suite(&suite, solution, heuristic).unwrap();
                assert_eq!(
                    stats.total.coherence_violations, 0,
                    "{solution}/{heuristic} must be coherent"
                );
            }
        }
    }

    #[test]
    fn specialization_option_changes_chained_benchmarks() {
        let suite = distvliw_mediabench::suite("rasta").unwrap();
        let mut spec_suite = suite.clone();
        for kernel in &mut spec_suite.kernels {
            *kernel = distvliw_coherence::specialize_kernel(kernel).0;
        }
        let p = Pipeline::new(machine());
        // With MinComs the scheduler can spread the now-independent
        // segments over clusters: specialization removes the
        // cross-segment links, shrinking what MDC must serialize and the
        // chained loop's II with it. (Under PrefClus the segments can
        // still tie-break into one cluster, so MinComs is the clean
        // observable.)
        let plain = p
            .run_suite(&suite, Solution::Mdc, Heuristic::MinComs)
            .unwrap();
        let specialized = p
            .run_suite(&spec_suite, Solution::Mdc, Heuristic::MinComs)
            .unwrap();
        let ii_plain = plain.kernels[0].ii;
        let ii_spec = specialized.kernels[0].ii;
        assert!(ii_spec <= ii_plain, "II {ii_spec} vs {ii_plain}");
    }

    /// Runs `f` under a fresh trace sink and counts the searches that
    /// ran (`sched.schedule` spans) and the compiles the memo answered
    /// (`compile` spans with `memo=hit`).
    fn traced<R>(f: impl FnOnce() -> R) -> (R, usize, usize) {
        use distvliw_obs::trace::{self, FieldValue, TraceCtx};
        let sink = trace::TraceSink::new();
        let out = trace::with_ctx(TraceCtx::for_sink(&sink), f);
        let (records, dropped) = sink.take();
        assert_eq!(dropped, 0);
        let searches = records
            .iter()
            .filter(|r| r.name == "sched.schedule")
            .count();
        let hits = records
            .iter()
            .filter(|r| r.name == "compile")
            .filter(|r| {
                r.fields
                    .contains(&("memo", FieldValue::Str("hit".to_string())))
            })
            .count();
        (out, searches, hits)
    }

    /// Asserts that two runs of one suite produced the same schedules
    /// and the same simulations.
    fn assert_same_runs(a: &SuiteStats, b: &SuiteStats) {
        assert_eq!(a.total, b.total);
        assert_eq!(a.cluster, b.cluster);
        for (x, y) in a.kernels.iter().zip(&b.kernels) {
            assert_eq!(x.name, y.name);
            assert_eq!(
                (x.ii, x.span, x.static_comm_ops, &x.stats),
                (y.ii, y.span, y.static_comm_ops, &y.stats),
                "{}",
                x.name
            );
        }
    }

    #[test]
    fn warm_memo_reproduces_cold_run() {
        // A pipeline handed another run's memo schedules nothing and
        // produces byte-identical schedules and simulations. Only the
        // reported search *effort* differs: that of a search seeded at
        // the remembered II.
        let suite = distvliw_mediabench::suite("gsmdec").unwrap();
        let memo = Arc::new(ScheduleMemo::new());
        let (cold, searched, _) = traced(|| {
            Pipeline::new(machine())
                .with_memo(memo.clone())
                .run_suite(&suite, Solution::Mdc, Heuristic::PrefClus)
                .unwrap()
        });
        assert_eq!(searched, memo.map.lock().unwrap().len());

        let warm_pipeline = Pipeline::new(machine()).with_memo(memo);
        let (warm, searched, hits) = traced(|| {
            warm_pipeline
                .run_suite(&suite, Solution::Mdc, Heuristic::PrefClus)
                .unwrap()
        });
        assert_eq!((searched, hits), (0, suite.kernels.len()));
        assert_same_runs(&warm, &cold);
        for (w, c) in warm.kernels.iter().zip(&cold.kernels) {
            assert!(
                w.sched.iis_tried <= c.sched.iis_tried,
                "{}: a seeded search never tries more IIs",
                w.name
            );
            assert!(w.sched.placement_attempts <= c.sched.placement_attempts);
        }
        // Every later hit reports the same effort.
        let again = warm_pipeline
            .run_suite(&suite, Solution::Mdc, Heuristic::PrefClus)
            .unwrap();
        for (a, w) in again.kernels.iter().zip(&warm.kernels) {
            assert_eq!(a.sched, w.sched, "{}", w.name);
        }
    }

    #[test]
    fn a_full_memo_clears_and_refills() {
        let suite = distvliw_mediabench::suite("gsmdec").unwrap();
        let memo = Arc::new(ScheduleMemo::new());
        let run = || {
            traced(|| {
                Pipeline::new(machine())
                    .with_memo(memo.clone())
                    .run_suite(&suite, Solution::Mdc, Heuristic::PrefClus)
                    .unwrap()
            })
        };
        let len = || memo.map.lock().unwrap().len();
        let foreign = |i: usize| {
            let mut key = [0xa5; 16];
            key[..8].copy_from_slice(&(i as u64).to_le_bytes());
            key
        };
        let (cold, distinct, _) = run();
        assert_eq!(distinct, len());
        // Fill the memo with other problems: its own entries survive.
        let filler = memo.map.lock().unwrap().values().next().unwrap().clone();
        for i in len()..MEMO_CAPACITY {
            memo.record(foreign(i), filler.clone());
        }
        assert_eq!(len(), MEMO_CAPACITY);
        let (warm, searched, _) = run();
        assert_eq!(searched, 0, "every problem is remembered");
        assert_eq!(len(), MEMO_CAPACITY, "hits do not clear");
        // One more problem starts the memo over.
        memo.record(foreign(MEMO_CAPACITY), filler);
        assert_eq!(len(), 1);
        let (cleared, searched, _) = run();
        assert_eq!(searched, distinct, "a cleared memo searches again");
        assert_eq!(len(), distinct + 1);
        let (refilled, searched, _) = run();
        assert_eq!(searched, 0);
        for other in [&warm, &cleared, &refilled] {
            assert_same_runs(other, &cold);
        }
        for (i, c) in cold.kernels.iter().enumerate() {
            // With its entries gone the search is the cold one, and the
            // next run hits again.
            assert_eq!(cleared.kernels[i].sched, c.sched, "{}", c.name);
            assert_eq!(
                refilled.kernels[i].sched, warm.kernels[i].sched,
                "{}",
                c.name
            );
        }
    }

    #[test]
    fn memo_shared_across_sim_only_machine_variants() {
        // The memo key embeds the machine's *scheduler projection*
        // (`sched_canonical_bytes`), not the full canonical encoding, so
        // a machine differing only in a simulation field — memory-bus
        // count here — takes the other variant's schedules without a
        // search. epicenc/MDC schedules its chained kernel well above
        // the MII, so a hit reports a seeded search: a nonzero
        // `seeded_kernels`.
        let suite = distvliw_mediabench::suite("epicenc").unwrap();
        let memo = Arc::new(ScheduleMemo::new());
        let cold = Pipeline::new(machine())
            .with_memo(memo.clone())
            .run_suite(&suite, Solution::Mdc, Heuristic::PrefClus)
            .unwrap();
        assert_eq!(cold.sched.seeded_kernels, 0, "cold run has no seeds");
        assert!(
            cold.kernels.iter().any(|k| k.sched.ii > k.sched.mii + 2),
            "a kernel scheduling above MII+slack is what makes seeding observable"
        );

        let mut variant = machine();
        variant.mem_buses.count += 1;
        let warm_pipeline = Pipeline::new(variant).with_memo(memo);
        let (warm, searched, hits) = traced(|| {
            warm_pipeline
                .run_suite(&suite, Solution::Mdc, Heuristic::PrefClus)
                .unwrap()
        });
        assert_eq!((searched, hits), (0, suite.kernels.len()));
        assert!(
            warm.sched.seeded_kernels > 0,
            "a hit reports the search seeded at the remembered II"
        );
        // The schedules are identical (the simulation differs — more
        // buses).
        for (w, c) in warm.kernels.iter().zip(&cold.kernels) {
            assert_eq!(w.ii, c.ii, "{}", w.name);
            assert_eq!(w.span, c.span, "{}", w.name);
            assert_eq!(w.static_comm_ops, c.static_comm_ops, "{}", w.name);
        }
    }

    #[test]
    fn kernels_past_the_limits_fail_validation() {
        let mut suite = distvliw_mediabench::suite("gsmdec").unwrap();
        suite.kernels[1].invocations = 1 << 62;
        let err = Pipeline::new(machine())
            .run_suite(&suite, Solution::Hybrid, Heuristic::PrefClus)
            .unwrap_err();
        assert_eq!(
            err,
            PipelineError::Kernel {
                kernel: suite.kernels[1].name.clone(),
                error: format!(
                    "kernel invocations {} exceeds the limit {}",
                    1u64 << 62,
                    distvliw_ir::MAX_INVOCATIONS
                ),
            }
        );
    }

    #[test]
    fn display_impls() {
        assert_eq!(Solution::Free.to_string(), "Free");
        assert_eq!(Solution::Mdc.to_string(), "MDC");
        assert_eq!(Solution::Ddgt.to_string(), "DDGT");
        assert_eq!(Solution::Hybrid.to_string(), "Hybrid");
    }

    #[test]
    fn hybrid_picks_the_best_solution_per_loop() {
        // Paper Section 6: the hybrid estimates both solutions per loop
        // and keeps the winner, so it can never lose to either.
        let p = Pipeline::new(machine());
        for name in ["epicdec", "pgpenc", "gsmdec"] {
            let suite = distvliw_mediabench::suite(name).unwrap();
            for heuristic in [Heuristic::PrefClus, Heuristic::MinComs] {
                let mdc = p.run_suite(&suite, Solution::Mdc, heuristic).unwrap();
                let ddgt = p.run_suite(&suite, Solution::Ddgt, heuristic).unwrap();
                let hybrid = p.run_suite(&suite, Solution::Hybrid, heuristic).unwrap();
                assert!(
                    hybrid.total_cycles() <= mdc.total_cycles().min(ddgt.total_cycles()),
                    "{name}/{heuristic}: hybrid {} vs MDC {} / DDGT {}",
                    hybrid.total_cycles(),
                    mdc.total_cycles(),
                    ddgt.total_cycles()
                );
                assert_eq!(hybrid.total.coherence_violations, 0);
            }
        }
    }
}
