//! The end-to-end pipeline: coherence pass → cluster-aware modulo
//! scheduling → cycle-level simulation.

use std::collections::HashMap;
use std::fmt;
use std::sync::{Arc, Mutex};

use distvliw_arch::MachineConfig;
use distvliw_coherence::{find_chains, transform, SchedConstraints};
use distvliw_ir::{profile::preferred_clusters, Ddg, LoopKernel, Suite};
use distvliw_sched::{Heuristic, ModuloScheduler, SchedStats, Schedule, ScheduleError};
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

/// Pipeline configuration. The pipeline always simulates with
/// [`SimOptions::default`]; a caller that wants paper Section 6 code
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
/// pipeline whose II-seed store is warm (an earlier run of the same
/// configuration on the same `Pipeline` instance) legitimately reports
/// fewer attempts and a nonzero `seeded_kernels` while producing the
/// byte-identical schedule. Compare effort across runs only from a
/// fresh `Pipeline` (as `experiments::run_direct` does for every
/// compile unit).
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

/// Profile-guided II seeds: achieved IIs recorded per full scheduling
/// configuration (machine, graph, constraints, profile, heuristic), fed
/// back so a repeat search opens just under the recorded II instead of
/// re-scanning from the MII. Shared across the pipeline's clones and
/// threads; the scheduler is deterministic, so a warm seed reproduces
/// the cold result exactly while skipping the provably re-failing IIs.
/// The store lives in memory and lasts one process: a schedule is a
/// pure function of its key, so nothing about it needs to persist. It
/// holds at most `SEED_STORE_CAPACITY` (65,536) seeds and starts over when a
/// new one would exceed that, so a daemon fed endless distinct machines
/// stays bounded; losing seeds costs search effort, never a schedule
/// byte.
#[derive(Debug, Default)]
pub struct IiSeedStore {
    map: Mutex<HashMap<[u8; 16], u32>>,
}

impl IiSeedStore {
    /// An empty store.
    #[must_use]
    pub fn new() -> Self {
        IiSeedStore::default()
    }

    fn get(&self, key: [u8; 16]) -> Option<u32> {
        self.map
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .get(&key)
            .copied()
    }

    fn record(&self, key: [u8; 16], ii: u32) {
        let mut map = self
            .map
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        if map.len() >= SEED_STORE_CAPACITY && !map.contains_key(&key) {
            map.clear();
        }
        map.insert(key, ii);
    }
}

/// The most seeds an [`IiSeedStore`] holds: far above the few thousand
/// distinct scheduling problems any figure, sweep or bench workload
/// compiles, at about 2 MB.
const SEED_STORE_CAPACITY: usize = 1 << 16;

/// The full-configuration key of one scheduling problem. Everything the
/// scheduler's output depends on is encoded — the machine's *scheduler
/// projection* ([`MachineConfig::sched_canonical_bytes`], the same
/// invariant the sweep's compile-once factoring relies on, so machines
/// differing only in simulation fields share their seeds), graph
/// topology (the same `op_tag`/`dep_tag` encoding the result-cache
/// digest uses), constraints, profile preferences, heuristic and
/// options — then compressed to the cache layer's 128-bit two-FNV
/// fingerprint, so a seed is never replayed against a different problem
/// (a replayed seed above the victim's optimal II would silently return
/// a worse schedule, which is why a single 64-bit hash is not enough
/// here either).
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
    /// Profile-guided II seeds, shared by all clones of this pipeline.
    seeds: Arc<IiSeedStore>,
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
            seeds: Arc::new(IiSeedStore::new()),
        }
    }

    /// Replaces the pipeline options.
    #[must_use]
    pub fn with_options(mut self, options: PipelineOptions) -> Self {
        self.options = options;
        self
    }

    /// Replaces the II-seed store with a shared one. The scheduler is
    /// deterministic, so a warm store changes only search *effort*
    /// (fewer `iis_tried`, a nonzero `seeded_at`), never a schedule
    /// byte — pinned by `warm_seed_store_reproduces_cold_run`.
    #[must_use]
    pub fn with_seed_store(mut self, seeds: Arc<IiSeedStore>) -> Self {
        self.seeds = seeds;
        self
    }

    /// The machine this pipeline targets.
    #[must_use]
    pub fn machine(&self) -> &MachineConfig {
        &self.machine
    }

    /// Compiles and simulates every kernel of `suite` under the given
    /// solution and heuristic. The machine's interleaving factor is set
    /// from the suite (paper Table 1).
    ///
    /// One suite run is one cell of an experiment grid, so its kernels
    /// run in order on the calling thread; the two cell executors fan
    /// out over cells instead ([`crate::experiments::run_direct`], which
    /// splits a cell into [`Pipeline::compile_suite`] and
    /// [`Pipeline::simulate_artifact`] to compile each distinct schedule
    /// once, and the serving layer's `run_cells`).
    ///
    /// # Errors
    ///
    /// Returns the first kernel (in suite order) that fails validation or
    /// scheduling; later kernels are not run.
    pub fn run_suite(
        &self,
        suite: &Suite,
        solution: Solution,
        heuristic: Heuristic,
    ) -> Result<SuiteStats, PipelineError> {
        let machine = self.machine.clone().with_interleave(suite.interleave_bytes);
        let runs = suite
            .kernels
            .iter()
            .map(|kernel| self.run_kernel_on(&machine, kernel, solution, heuristic))
            .collect::<Result<Vec<_>, _>>()?;
        Ok(merge_runs(&suite.name, runs))
    }

    /// Compiles and simulates a single kernel with the pipeline's machine
    /// (using its configured interleave).
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
        self.run_kernel_on(&self.machine, kernel, solution, heuristic)
    }

    fn run_kernel_on(
        &self,
        machine: &MachineConfig,
        kernel: &LoopKernel,
        solution: Solution,
        heuristic: Heuristic,
    ) -> Result<KernelRun, PipelineError> {
        // The hybrid works loop by loop: compile and estimate both
        // solutions, keep the cheaper (paper Section 6; the estimate is
        // our cycle-level model, standing in for the paper's compile-time
        // cost model).
        if solution == Solution::Hybrid {
            let mdc = self.run_kernel_on(machine, kernel, Solution::Mdc, heuristic)?;
            let ddgt = self.run_kernel_on(machine, kernel, Solution::Ddgt, heuristic)?;
            return Ok(if mdc_wins(&mdc, &ddgt) { mdc } else { ddgt });
        }

        let artifact = self.compile_kernel_on(machine, kernel, solution, heuristic)?;
        Ok(self.simulate_kernel_artifact(machine, &artifact))
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
        debug_assert!(solution != Solution::Hybrid, "hybrid is not compiled");
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

        // Cluster-aware modulo scheduling, seeded with the II a prior
        // run of this exact configuration achieved (if any) and feeding
        // the achieved II back for the next one.
        let key = seed_key(
            machine,
            &kernel.ddg,
            &constraints,
            &prefs,
            heuristic,
            self.options.relax_latencies,
        );
        let (schedule, sched): (Schedule, SchedStats) = ModuloScheduler::new(machine)
            .with_latency_relaxation(self.options.relax_latencies)
            .with_ii_seed(self.seeds.get(key))
            .schedule_with_stats(&kernel.ddg, &constraints, &prefs, heuristic)
            .map_err(|error| PipelineError::Schedule {
                kernel: kernel.name.clone(),
                error,
            })?;
        self.seeds.record(key, schedule.ii);
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
        let (stats, cluster) = simulate_kernel_detailed(
            machine,
            &artifact.kernel,
            &artifact.schedule,
            SimOptions::default(),
        );
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
/// (ties go to MDC, matching `Pipeline::run_suite(Hybrid)`), and the
/// winners fold into suite statistics exactly like a direct hybrid run.
/// Shared by the factored sweep and the serving layer's `GET /sweep` so
/// neither re-compiles or re-simulates anything for the hybrid rows.
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

    #[test]
    fn warm_seed_store_reproduces_cold_run() {
        // A pipeline handed another run's seed store must produce
        // byte-identical schedules and simulations — only the search
        // *effort* may differ (fewer IIs tried, nonzero seeded counts).
        let suite = distvliw_mediabench::suite("gsmdec").unwrap();
        let seeds = Arc::new(IiSeedStore::new());
        let cold = Pipeline::new(machine())
            .with_seed_store(seeds.clone())
            .run_suite(&suite, Solution::Mdc, Heuristic::PrefClus)
            .unwrap();

        let warm_pipeline = Pipeline::new(machine()).with_seed_store(seeds);
        let warm = warm_pipeline
            .run_suite(&suite, Solution::Mdc, Heuristic::PrefClus)
            .unwrap();
        assert_eq!(warm.total, cold.total);
        assert_eq!(warm.cluster, cold.cluster);
        for (w, c) in warm.kernels.iter().zip(&cold.kernels) {
            assert_eq!(w.name, c.name);
            assert_eq!(w.ii, c.ii, "{}", w.name);
            assert_eq!(w.span, c.span, "{}", w.name);
            assert_eq!(w.static_comm_ops, c.static_comm_ops, "{}", w.name);
            assert_eq!(w.stats, c.stats, "{}", w.name);
            assert!(
                w.sched.iis_tried <= c.sched.iis_tried,
                "{}: a warm search never tries more IIs",
                w.name
            );
        }
        // The warm run re-recorded identical seeds: a second warm run
        // searches exactly like the first.
        let again = warm_pipeline
            .run_suite(&suite, Solution::Mdc, Heuristic::PrefClus)
            .unwrap();
        for (a, w) in again.kernels.iter().zip(&warm.kernels) {
            assert_eq!(a.sched, w.sched, "{}", w.name);
        }
    }

    #[test]
    fn a_full_seed_store_clears_and_keeps_seeding() {
        let suite = distvliw_mediabench::suite("gsmdec").unwrap();
        let seeds = Arc::new(IiSeedStore::new());
        let run = || {
            Pipeline::new(machine())
                .with_seed_store(seeds.clone())
                .run_suite(&suite, Solution::Mdc, Heuristic::PrefClus)
                .unwrap()
        };
        let len = || seeds.map.lock().unwrap().len();
        let foreign = |i: usize| {
            let mut key = [0xa5; 16];
            key[..8].copy_from_slice(&(i as u64).to_le_bytes());
            key
        };
        let cold = run();
        // Fill the store with other problems: its own seeds survive.
        for i in len()..SEED_STORE_CAPACITY {
            seeds.record(foreign(i), 1);
        }
        assert_eq!(len(), SEED_STORE_CAPACITY);
        let warm = run();
        assert_eq!(len(), SEED_STORE_CAPACITY, "re-recorded keys do not clear");
        // One more problem starts the store over.
        seeds.record(foreign(SEED_STORE_CAPACITY), 1);
        assert_eq!(len(), 1);
        let cleared = run();
        let reseeded = run();
        for (i, c) in cold.kernels.iter().enumerate() {
            for other in [&warm, &cleared, &reseeded] {
                let k = &other.kernels[i];
                assert_eq!(
                    (k.ii, k.span, &k.stats),
                    (c.ii, c.span, &c.stats),
                    "{}",
                    c.name
                );
                assert_eq!(k.static_comm_ops, c.static_comm_ops, "{}", c.name);
            }
            // With its seeds gone the search is the cold one, and the
            // next run is seeded again.
            assert_eq!(cleared.kernels[i].sched, c.sched, "{}", c.name);
            assert_eq!(
                reseeded.kernels[i].sched, warm.kernels[i].sched,
                "{}",
                c.name
            );
        }
        assert_eq!(cleared.total, cold.total);
    }

    #[test]
    fn seeds_shared_across_sim_only_machine_variants() {
        // The seed key embeds the machine's *scheduler projection*
        // (`sched_canonical_bytes`), not the full canonical encoding, so
        // a machine differing only in a simulation field — memory-bus
        // count here — resumes the II search from the other variant's
        // seeds. epicenc/MDC schedules its chained kernel well above the
        // MII, which makes the resumption observable as a nonzero
        // `seeded_kernels`.
        let suite = distvliw_mediabench::suite("epicenc").unwrap();
        let seeds = Arc::new(IiSeedStore::new());
        let cold = Pipeline::new(machine())
            .with_seed_store(seeds.clone())
            .run_suite(&suite, Solution::Mdc, Heuristic::PrefClus)
            .unwrap();
        assert_eq!(cold.sched.seeded_kernels, 0, "cold run has no seeds");
        assert!(
            cold.kernels.iter().any(|k| k.sched.ii > k.sched.mii + 2),
            "a kernel scheduling above MII+slack is what makes seeding observable"
        );

        let mut variant = machine();
        variant.mem_buses.count += 1;
        let warm_pipeline = Pipeline::new(variant).with_seed_store(seeds);
        let warm = warm_pipeline
            .run_suite(&suite, Solution::Mdc, Heuristic::PrefClus)
            .unwrap();
        assert!(
            warm.sched.seeded_kernels > 0,
            "the bus variant must resume from the other variant's seeds"
        );
        // Seeding changes search effort only: the schedules themselves
        // are identical (the simulation differs — more buses).
        for (w, c) in warm.kernels.iter().zip(&cold.kernels) {
            assert_eq!(w.ii, c.ii, "{}", w.name);
            assert_eq!(w.span, c.span, "{}", w.name);
            assert_eq!(w.static_comm_ops, c.static_comm_ops, "{}", w.name);
        }
        let again = warm_pipeline
            .run_suite(&suite, Solution::Mdc, Heuristic::PrefClus)
            .unwrap();
        for (a, w) in again.kernels.iter().zip(&warm.kernels) {
            assert_eq!(a.sched, w.sched, "{}", w.name);
        }
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
