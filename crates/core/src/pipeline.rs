//! The end-to-end pipeline: coherence pass → cluster-aware modulo
//! scheduling → cycle-level simulation.

use std::convert::Infallible;
use std::fmt;
use std::sync::{Arc, Mutex, OnceLock};

use distvliw_arch::MachineConfig;
use distvliw_coherence::{find_chains, transform, SchedConstraints};
use distvliw_ir::{profile::preferred_clusters, Ddg, LoopKernel, PrefMap, Suite};
use distvliw_sched::{
    Heuristic, ModuloScheduler, SchedStats, Schedule, ScheduleError, SearchRecord,
};
use distvliw_sim::{count_simulation, simulate_kernel_run, ClusterUsage, SimRun, SimStats};

use crate::cache::{resolve_miss, ResultCache, SingleFlight};
use crate::cachekey::{self, digest_fingerprint, push_u64, CacheKey};

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
/// pipeline whose schedule memo is warm (an earlier or concurrent run of
/// the same configuration sharing the memo) legitimately reports
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
    /// Kernels reported as a search seeded above the MII (memo hits).
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
    /// part of the graph the schedule refers to). Shared with the
    /// pipeline's compile memo; read-only, so `kernel_digest` stays its
    /// digest.
    kernel: Arc<LoopKernel>,
    /// The modulo schedule, shared with the pipeline's schedule memo;
    /// read-only like `kernel`.
    schedule: Arc<Schedule>,
    /// Scheduler search telemetry of the (cold) compile.
    pub sched: SchedStats,
    /// [`kernel_digest`] of `kernel`, stored with its front end.
    kernel_digest: [u8; 16],
    /// [`schedule_digest`] of `schedule`, stored with its search.
    schedule_digest: [u8; 16],
}

impl KernelArtifact {
    /// An artifact of `kernel` and `schedule`, both digests recomputed.
    #[cfg(test)]
    fn new(kernel: LoopKernel, schedule: Schedule, sched: SchedStats) -> Self {
        KernelArtifact {
            kernel_digest: kernel_digest(&kernel),
            schedule_digest: schedule_digest(&schedule),
            kernel: Arc::new(kernel),
            schedule: Arc::new(schedule),
            sched,
        }
    }

    /// The kernel as scheduled: the DDGT graph transformation applied
    /// for [`Solution::Ddgt`] (store replicas and synchronization edges
    /// are part of the graph the schedule refers to).
    #[must_use]
    pub fn kernel(&self) -> &LoopKernel {
        &self.kernel
    }

    /// The modulo schedule.
    #[must_use]
    pub fn schedule(&self) -> &Schedule {
        &self.schedule
    }
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

/// One kernel's front end: what the compile phase derives before the
/// schedule search (validation, the profile pass, the coherence pass) and
/// the content digests the two memos downstream are keyed by.
struct FrontEnd {
    /// The post-pass kernel, shared with every [`KernelArtifact`] built
    /// from this entry.
    kernel: Arc<LoopKernel>,
    constraints: SchedConstraints,
    prefs: PrefMap,
    /// The scheduling problem's key in the schedule table.
    seed_key: CacheKey,
    /// [`kernel_digest`] of `kernel`.
    kernel_digest: [u8; 16],
}

/// One solved scheduling problem: the schedule, the pass-by-pass record
/// of the search that found it and the schedule's [`schedule_digest`].
struct Solved {
    schedule: Arc<Schedule>,
    record: SearchRecord,
    digest: [u8; 16],
}

/// One bounded single-flight table of the [`PipelineMemo`]: core's LRU
/// [`ResultCache`] behind a [`SingleFlight`], misses through
/// [`resolve_miss`]. A value is computed once per key whatever the
/// fan-out width: callers that miss one key at the same time wait for
/// the first. An `Err` is not stored; its waiters get it.
struct MemoTable<V, E> {
    cache: Mutex<ResultCache<V>>,
    flight: SingleFlight<Result<V, E>>,
}

impl<V: Clone, E: Clone> MemoTable<V, E> {
    fn new(capacity: usize) -> Self {
        MemoTable {
            cache: Mutex::new(ResultCache::new(capacity)),
            flight: SingleFlight::new(),
        }
    }

    /// The value under `key`, computed by `compute` on a miss. The
    /// boolean is `true` when this call ran `compute`, `false` for a hit
    /// (a caller that waited on a concurrent computation included).
    fn resolve(
        &self,
        key: &CacheKey,
        compute: impl FnOnce() -> Result<V, E>,
    ) -> (Result<V, E>, bool) {
        if let Some(value) = self.cache.lock().expect("cache lock").get(key) {
            return (Ok(value), false);
        }
        let mut ran = false;
        let compute = || {
            ran = true;
            compute()
        };
        let publish = |cache: &mut ResultCache<V>, value: &V| {
            cache.insert(key.clone(), value.clone());
        };
        let (value, _) = resolve_miss(&self.cache, &self.flight, key, compute, publish);
        (value, ran)
    }
}

/// The pipeline's memo: every kernel front end compiled under a known
/// suite fingerprint, every successful schedule search and every kernel
/// simulation, each in a bounded single-flight table, shared across the
/// pipeline's clones and threads. It lives in memory only.
///
/// The compile table keys each front end by the suite fingerprint, the
/// kernel's index, the compile machine's scheduler projection, the
/// solution, the heuristic and the relaxation flag (see `compile_key`;
/// `COMPILE_MEMO_CAPACITY` front ends), which fix everything the
/// validation, profile and coherence passes read. Every compile goes
/// through it. A hit skips those passes and the key derivation behind
/// them and goes straight to the schedule table with the stored problem
/// key, so it reports exactly the schedule, effort and counts a
/// recomputed front end would.
///
/// The schedule table keys each problem by its full configuration
/// (machine projection, graph, constraints, profile, heuristic — see
/// `seed_key`; `MEMO_CAPACITY` problems). The scheduler is
/// deterministic, so a stored schedule is byte for byte the one a repeat
/// search would find. A hit (a waiter included) reports the stats a
/// search seeded with the stored II would ([`SearchRecord::stats`] at
/// that II), so the effort reported does not depend on which compile
/// searched.
///
/// The simulation table keys each run by its content (full machine,
/// post-pass kernel, schedule — see `sim_key`; `SIM_MEMO_CAPACITY`
/// runs). The simulator is deterministic too, so a hit returns exactly
/// the statistics a fresh run would, and counts the run's work into the
/// `sim_*` families again ([`count_simulation`]).
pub struct PipelineMemo {
    fronts: MemoTable<Arc<FrontEnd>, PipelineError>,
    schedules: MemoTable<Arc<Solved>, ScheduleError>,
    sims: MemoTable<Arc<SimRun>, Infallible>,
}

impl PipelineMemo {
    /// An empty memo.
    #[must_use]
    pub fn new() -> Self {
        PipelineMemo {
            fronts: MemoTable::new(COMPILE_MEMO_CAPACITY),
            schedules: MemoTable::new(MEMO_CAPACITY),
            sims: MemoTable::new(SIM_MEMO_CAPACITY),
        }
    }
}

impl Default for PipelineMemo {
    fn default() -> Self {
        PipelineMemo::new()
    }
}

impl fmt::Debug for PipelineMemo {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("PipelineMemo").finish_non_exhaustive()
    }
}

/// The most schedules a [`PipelineMemo`] holds. An entry costs about
/// 240 bytes of map slot, key, `Arc` and fixed fields, about 34 bytes per
/// scheduled op (its `BTreeMap` entry), 24 per copy and 32 per II the
/// search tried. Over every problem the bundled suites pose on the
/// figure, NOBAL and sweep machines (660 distinct) that averages about
/// 3 KB, and the largest (a 613-op DDGT graph) is about 37 KB: a full
/// memo holds about 6 MB of typical entries and stays under about
/// 75 MB even if every entry were the largest. 2048 is still about three
/// times the problems the whole catalog poses.
const MEMO_CAPACITY: usize = 1 << 11;

/// The most simulations a [`PipelineMemo`] holds. An entry is the
/// 16-byte key, its map slot and an `Arc` of the run: fixed statistics
/// and work counters plus a per-cluster access and violation table, so
/// it grows with the cluster count. Measured with a counting allocator
/// over the 196 distinct runs the bundled suites pose under Free, MDC and
/// DDGT on one to four memory buses, an entry costs about 460 bytes at 4
/// clusters, 620 at 8 and 950 at 16, map table included. A full memo
/// therefore holds about 2 MB (4 MB at 16 clusters). A cold pass of the
/// figure routes poses 362 distinct simulations and `matrix_churn`'s
/// cell pool 156, so 4096 is about ten times the catalog. The table
/// grows as it fills; nothing is allocated up front.
const SIM_MEMO_CAPACITY: usize = 1 << 12;

/// The most front ends a [`PipelineMemo`] holds. An entry is its key
/// (about 120 bytes: fingerprint, projection, tags, index), its map slot
/// and an `Arc` of the front end, which owns the post-pass kernel's graph
/// (the address streams are shared `Arc`s), the constraints, the profile
/// preferences and the 16-byte problem key and kernel digest. Measured
/// with a counting allocator over the 174 front ends the bundled suites
/// pose under Free, MDC and DDGT with both heuristics, an entry costs
/// about 12 KB at 4 clusters and 19 KB at 16; the largest (a DDGT graph
/// replicated for 16 clusters) is about 360 KB, 160 KB at 4 clusters.
/// A full memo therefore holds about 6 MB of typical entries and stays
/// under about 80 MB even if every entry were the largest at 4 clusters.
/// A cold pass of the figure routes poses 398 distinct front ends and
/// `matrix_churn`'s cell pool 176, so 512 holds either whole.
const COMPILE_MEMO_CAPACITY: usize = 1 << 9;

/// The full-configuration key of one scheduling problem. Everything the
/// scheduler's output depends on is encoded — the machine's *scheduler
/// projection* ([`MachineConfig::sched_canonical_bytes`], the same
/// invariant the sweep's compile-once factoring relies on, so machines
/// differing only in simulation fields share their schedules), graph
/// topology (the same `op_tag`/`dep_tag` encoding the result-cache
/// digest uses), constraints, profile preferences, heuristic and
/// options — then compressed to the cache layer's 128-bit two-FNV
/// fingerprint, so a memo entry is never returned for a different
/// problem (it would be a schedule of another graph, which is why a
/// single 64-bit hash is not enough here either). The 16 digest bytes
/// are the memo's [`CacheKey`].
fn seed_key(
    machine: &MachineConfig,
    ddg: &Ddg,
    constraints: &SchedConstraints,
    prefs: &PrefMap,
    heuristic: Heuristic,
    relax_latencies: bool,
) -> CacheKey {
    let mut bytes = machine.sched_canonical_bytes();
    push_u64(&mut bytes, ddg.node_count() as u64);
    for (_, op) in ddg.iter() {
        bytes.push(cachekey::op_tag(op.kind));
        match op.mem_id() {
            Some(m) => {
                bytes.push(0);
                push_u64(&mut bytes, u64::from(m.0));
            }
            None => bytes.push(0xff),
        }
    }
    for (_, d) in ddg.deps() {
        push_u64(&mut bytes, u64::from(d.src.0));
        push_u64(&mut bytes, u64::from(d.dst.0));
        bytes.push(cachekey::dep_tag(d.kind));
        push_u64(&mut bytes, u64::from(d.distance));
    }
    for (n, g) in &constraints.colocate {
        push_u64(&mut bytes, u64::from(n.0));
        push_u64(&mut bytes, u64::from(*g));
    }
    for (g, c) in &constraints.group_target {
        push_u64(&mut bytes, u64::from(*g));
        push_u64(&mut bytes, *c as u64);
    }
    for (n, c) in &constraints.pinned {
        push_u64(&mut bytes, u64::from(n.0));
        push_u64(&mut bytes, *c as u64);
    }
    push_u64(&mut bytes, u64::from(constraints.min_ii));
    for (m, info) in prefs {
        push_u64(&mut bytes, u64::from(m.0));
        for &c in info.counts() {
            push_u64(&mut bytes, c);
        }
    }
    bytes.push(heuristic as u8);
    bytes.push(u8::from(relax_latencies));
    CacheKey::from_bytes(digest_fingerprint(&bytes).to_vec())
}

/// The compile table's key of kernel `index` of a suite: the suite's
/// content fingerprint ([`cachekey::digest_fingerprint`] of its
/// [`cachekey::suite_digest`]; for [`Pipeline::run_kernel`], that of a
/// one-kernel suite), the compile machine's scheduler
/// projection ([`MachineConfig::sched_canonical_bytes`], interleave
/// applied: it fixes the cluster count and every home cluster the
/// profile and coherence passes read), the solution, the heuristic, the
/// relaxation flag and the index. The projection is the one
/// `experiments::run_direct` groups its compile units by, so machines
/// differing only in simulation fields share their front ends. Like a
/// cell key it carries the full encoding, so only the suite fingerprint
/// is compared by digest.
fn compile_key(
    fingerprint: &[u8; 16],
    machine: &MachineConfig,
    solution: Solution,
    heuristic: Heuristic,
    relax_latencies: bool,
    index: usize,
) -> CacheKey {
    let mut bytes = fingerprint.to_vec();
    bytes.extend_from_slice(&machine.sched_canonical_bytes());
    bytes.push(solution as u8);
    bytes.push(heuristic as u8);
    bytes.push(u8::from(relax_latencies));
    push_u64(&mut bytes, index as u64);
    CacheKey::from_bytes(bytes)
}

/// A 128-bit digest of everything the simulator reads of a post-pass
/// kernel: the graph (each node's kind, sequence number, memory site
/// and width and replica root, every dependence edge), the execution
/// streams, the trip count and invocations. The kernel's name and
/// profile image are left out: the simulator reads neither, so kernels
/// differing only there share one run.
fn kernel_digest(kernel: &LoopKernel) -> [u8; 16] {
    let ddg = &kernel.ddg;
    let mut bytes = Vec::new();
    push_u64(&mut bytes, ddg.node_count() as u64);
    for n in ddg.node_ids() {
        let node = ddg.node(n);
        push_u64(&mut bytes, u64::from(n.0));
        bytes.push(cachekey::op_tag(node.kind));
        push_u64(&mut bytes, u64::from(ddg.seq(n)));
        match node.mem {
            Some(mem) => {
                bytes.push(0);
                push_u64(&mut bytes, u64::from(mem.mem.0));
                push_u64(&mut bytes, mem.width.bytes());
            }
            None => bytes.push(0xff),
        }
        match ddg.replica_of(n) {
            Some(root) => {
                bytes.push(0);
                push_u64(&mut bytes, u64::from(root.0));
            }
            None => bytes.push(0xff),
        }
    }
    push_u64(&mut bytes, ddg.deps().count() as u64);
    for (_, d) in ddg.deps() {
        push_u64(&mut bytes, u64::from(d.src.0));
        push_u64(&mut bytes, u64::from(d.dst.0));
        bytes.push(cachekey::dep_tag(d.kind));
        push_u64(&mut bytes, u64::from(d.distance));
    }
    push_u64(&mut bytes, kernel.exec.len() as u64);
    for (mem, stream) in kernel.exec.iter() {
        push_u64(&mut bytes, u64::from(mem.0));
        cachekey::push_stream(&mut bytes, stream);
    }
    push_u64(&mut bytes, kernel.trip_count);
    push_u64(&mut bytes, kernel.invocations);
    digest_fingerprint(&bytes)
}

/// A 128-bit digest of a schedule: II, span, each op's cluster and
/// start, each copy's producer, clusters and start.
fn schedule_digest(schedule: &Schedule) -> [u8; 16] {
    let mut bytes = Vec::new();
    push_u64(&mut bytes, u64::from(schedule.ii));
    push_u64(&mut bytes, u64::from(schedule.span));
    push_u64(&mut bytes, schedule.ops.len() as u64);
    for (n, op) in &schedule.ops {
        push_u64(&mut bytes, u64::from(n.0));
        push_u64(&mut bytes, op.cluster as u64);
        push_u64(&mut bytes, u64::from(op.start));
    }
    push_u64(&mut bytes, schedule.copies.len() as u64);
    for c in &schedule.copies {
        push_u64(&mut bytes, u64::from(c.producer.0));
        push_u64(&mut bytes, c.from_cluster as u64);
        push_u64(&mut bytes, c.to_cluster as u64);
        push_u64(&mut bytes, u64::from(c.start));
    }
    digest_fingerprint(&bytes)
}

/// The content key of one kernel simulation: the simulation machine's
/// full [`MachineConfig::canonical_bytes`] (interleave applied), the
/// post-pass kernel's [`kernel_digest`] and
/// the schedule's [`schedule_digest`] — everything the simulator's
/// output depends on — compressed to the same 128-bit fingerprint as
/// `seed_key`. Both digests are stored with the entries that produced
/// them (the front end and the solved problem), so a lookup hashes
/// about 170 bytes whatever the kernel's size.
fn sim_key(
    machine: &MachineConfig,
    kernel_digest: &[u8; 16],
    schedule_digest: &[u8; 16],
) -> CacheKey {
    let mut bytes = machine.canonical_bytes();
    bytes.extend_from_slice(kernel_digest);
    bytes.extend_from_slice(schedule_digest);
    CacheKey::from_bytes(digest_fingerprint(&bytes).to_vec())
}

/// The end-to-end compile-and-simulate pipeline for one machine.
#[derive(Debug, Clone)]
pub struct Pipeline {
    machine: MachineConfig,
    options: PipelineOptions,
    /// Compiled front ends, solved scheduling problems and run
    /// simulations, shared by all clones of this pipeline.
    memo: Arc<PipelineMemo>,
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
            memo: Arc::new(PipelineMemo::new()),
        }
    }

    /// Replaces the pipeline options.
    #[must_use]
    pub fn with_options(mut self, options: PipelineOptions) -> Self {
        self.options = options;
        self
    }

    /// Replaces the memo with a shared one. The scheduler and the
    /// simulator are deterministic, so a warm memo changes only the
    /// search *effort* reported (that of a seeded search: fewer
    /// `iis_tried`, a nonzero `seeded_at`), never a schedule or
    /// simulation byte — pinned by `warm_memo_reproduces_cold_run`.
    #[must_use]
    pub fn with_memo(mut self, memo: Arc<PipelineMemo>) -> Self {
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
    /// the serving layer's `run_cells`, which calls
    /// [`Pipeline::run_fingerprinted_suite`] with the fingerprint its
    /// cell key already carries). This call fingerprints the suite
    /// itself, once.
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
        let fingerprint = digest_fingerprint(&cachekey::suite_digest(suite));
        self.run_fingerprinted_suite(suite, &fingerprint, solution, heuristic)
    }

    /// [`Pipeline::run_suite`] for a suite whose content fingerprint
    /// (`digest_fingerprint(&suite_digest(suite))`, as a cell key
    /// carries it) the caller already holds, so the suite is not hashed
    /// again.
    ///
    /// # Errors
    ///
    /// As [`Pipeline::run_suite`].
    pub fn run_fingerprinted_suite(
        &self,
        suite: &Suite,
        fingerprint: &[u8; 16],
        solution: Solution,
        heuristic: Heuristic,
    ) -> Result<SuiteStats, PipelineError> {
        if solution == Solution::Hybrid {
            let mdc = self.run_fingerprinted_suite(suite, fingerprint, Solution::Mdc, heuristic)?;
            let ddgt =
                self.run_fingerprinted_suite(suite, fingerprint, Solution::Ddgt, heuristic)?;
            return Ok(derive_hybrid(&mdc, &ddgt));
        }
        let artifact = self.compile_fingerprinted_suite(suite, fingerprint, solution, heuristic)?;
        Ok(self.simulate_artifact(&artifact))
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
        // Its front end is keyed like kernel 0 of a one-kernel suite.
        let fingerprint = digest_fingerprint(&cachekey::kernels_digest(
            "",
            self.machine.interleave_bytes,
            std::slice::from_ref(kernel),
        ));
        let relax = self.options.relax_latencies;
        let key = compile_key(&fingerprint, &self.machine, solution, heuristic, relax, 0);
        let artifact = self.compile_kernel_on(&self.machine, kernel, &key, solution, heuristic)?;
        Ok(self.simulate_kernel_artifact(&self.machine, &artifact))
    }

    /// The compile phase for one kernel: its front end (validation, the
    /// profile and coherence passes) from the compile table under
    /// `front_key` ([`compile_key`]), then the modulo schedule and the
    /// checker.
    /// `solution` must be concrete ([`Solution::Hybrid`] is a selection
    /// over MDC and DDGT runs, not a compilation).
    fn compile_kernel_on(
        &self,
        machine: &MachineConfig,
        kernel: &LoopKernel,
        front_key: &CacheKey,
        solution: Solution,
        heuristic: Heuristic,
    ) -> Result<KernelArtifact, PipelineError> {
        let mut span = distvliw_obs::Span::enter("compile");
        span.field_str("kernel", kernel.name.clone());
        let relax = self.options.relax_latencies;
        // The front end: validation, the profile and coherence passes and
        // the keys below, or the one a prior or concurrent compile of
        // this kernel under this projection, solution and heuristic made.
        let front_end = || front_end(machine, kernel, solution, heuristic, relax);
        let (front, ran) = self
            .memo
            .fronts
            .resolve(front_key, || front_end().map(Arc::new));
        span.field_str("front", if ran { "miss" } else { "hit" });
        let front = front?;
        if !ran {
            compile_memo_hits().inc();
            // The key must fix the front end: recompute it.
            debug_assert!(
                front_end().is_ok_and(|fresh| fresh.seed_key == front.seed_key
                    && fresh.kernel_digest == front.kernel_digest),
                "compile memo hit for `{}` differs from its front end",
                kernel.name
            );
        }

        // Cluster-aware modulo scheduling, or the schedule a prior run
        // of this exact configuration found, or the one a concurrent
        // compile of it is finding. A hit reports the stats of a search
        // seeded at the remembered II, as a repeat search would, and
        // counts them the same way.
        let (solved, searched) = self.memo.schedules.resolve(&front.seed_key, || {
            ModuloScheduler::new(machine)
                .with_latency_relaxation(relax)
                .schedule_with_record(
                    &front.kernel.ddg,
                    &front.constraints,
                    &front.prefs,
                    heuristic,
                )
                .map(|(schedule, record)| {
                    Arc::new(Solved {
                        digest: schedule_digest(&schedule),
                        schedule: Arc::new(schedule),
                        record,
                    })
                })
        });
        span.field_str("memo", if searched { "miss" } else { "hit" });
        let solved = solved.map_err(|error| PipelineError::Schedule {
            kernel: kernel.name.clone(),
            error,
        })?;
        let record = &solved.record;
        let sched = if searched {
            record.stats(None)
        } else {
            let stats = record.stats(Some(record.ii));
            distvliw_sched::count_schedule(&stats, true);
            stats
        };
        let schedule = Arc::clone(&solved.schedule);
        span.field_u64("ii", u64::from(schedule.ii));

        // Translation validation: re-verify the schedule from first
        // principles with the independent checker. Debug builds always
        // check (every test run doubles as a checker run); release
        // builds check when `options.check` is set.
        if self.options.check || cfg!(debug_assertions) {
            let report = distvliw_check::check_schedule(
                &front.kernel.ddg,
                machine,
                &front.constraints,
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
            kernel: front.kernel.clone(),
            schedule,
            sched,
            kernel_digest: front.kernel_digest,
            schedule_digest: solved.digest,
        })
    }

    /// The sim phase for one compiled kernel: cycle-level simulation of
    /// the artifact's schedule on `machine`, which may differ from the
    /// compile machine in simulation-only fields (memory-bus count,
    /// cache geometry, Attraction Buffers — anything outside
    /// [`MachineConfig::sched_canonical_bytes`]), or the run a prior or
    /// concurrent simulation of the same content made. A hit counts the
    /// stored run's work as the run did.
    fn simulate_kernel_artifact(
        &self,
        machine: &MachineConfig,
        artifact: &KernelArtifact,
    ) -> KernelRun {
        let mut span = distvliw_obs::Span::enter("sim");
        span.field_str("kernel", artifact.kernel.name.clone());
        let key = sim_key(machine, &artifact.kernel_digest, &artifact.schedule_digest);
        let (run, ran) = self.memo.sims.resolve(&key, || {
            Ok(Arc::new(simulate_kernel_run(
                machine,
                &artifact.kernel,
                &artifact.schedule,
            )))
        });
        span.field_str("memo", if ran { "miss" } else { "hit" });
        let Ok(run) = run;
        if !ran {
            count_simulation(&run.work, true);
        }
        KernelRun {
            name: artifact.kernel.name.clone(),
            ii: artifact.schedule.ii,
            span: artifact.schedule.span,
            static_comm_ops: artifact.schedule.comm_ops(),
            sched: artifact.sched,
            stats: run.stats,
            cluster: run.cluster.clone(),
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
        let fingerprint = digest_fingerprint(&cachekey::suite_digest(suite));
        self.compile_fingerprinted_suite(suite, &fingerprint, solution, heuristic)
    }

    /// [`Pipeline::compile_suite`] for a suite whose content fingerprint
    /// (`digest_fingerprint(&suite_digest(suite))`) the caller already
    /// holds, so the suite is not hashed again.
    ///
    /// # Panics
    ///
    /// As [`Pipeline::compile_suite`].
    ///
    /// # Errors
    ///
    /// As [`Pipeline::compile_suite`].
    pub fn compile_fingerprinted_suite(
        &self,
        suite: &Suite,
        fingerprint: &[u8; 16],
        solution: Solution,
        heuristic: Heuristic,
    ) -> Result<SuiteArtifact, PipelineError> {
        assert!(
            solution != Solution::Hybrid,
            "hybrid is derived from MDC and DDGT runs, not compiled"
        );
        debug_assert_eq!(
            *fingerprint,
            digest_fingerprint(&cachekey::suite_digest(suite)),
            "the fingerprint of suite `{}`",
            suite.name
        );
        let machine = self.machine.clone().with_interleave(suite.interleave_bytes);
        let relax = self.options.relax_latencies;
        let kernels = suite
            .kernels
            .iter()
            .enumerate()
            .map(|(i, kernel)| {
                let key = compile_key(fingerprint, &machine, solution, heuristic, relax, i);
                self.compile_kernel_on(&machine, kernel, &key, solution, heuristic)
            })
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

/// One kernel's front end on the compile machine `machine`: validation,
/// the profile pass (preferred clusters under the profile input), the
/// coherence pass, and the problem key and kernel digest the schedule
/// and simulation tables are looked up by.
fn front_end(
    machine: &MachineConfig,
    kernel: &LoopKernel,
    solution: Solution,
    heuristic: Heuristic,
    relax_latencies: bool,
) -> Result<FrontEnd, PipelineError> {
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
    let seed_key = seed_key(
        machine,
        &kernel.ddg,
        &constraints,
        &prefs,
        heuristic,
        relax_latencies,
    );
    Ok(FrontEnd {
        kernel_digest: kernel_digest(&kernel),
        kernel: Arc::new(kernel),
        constraints,
        prefs,
        seed_key,
    })
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

/// Compiles whose front end the pipeline's compile memo returned, in
/// the global registry (looked up once: a hit is on the warm path).
pub(crate) fn compile_memo_hits() -> &'static distvliw_obs::Counter {
    static HITS: OnceLock<distvliw_obs::Counter> = OnceLock::new();
    HITS.get_or_init(|| {
        distvliw_obs::global().counter(
            "compile_memo_hits_total",
            "Kernel front ends the pipeline's compile memo returned without recomputing",
        )
    })
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
    use distvliw_ir::{DepKind, OpKind, Width};

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

    /// Runs `f` under a fresh trace sink and returns its spans.
    fn spans<R>(f: impl FnOnce() -> R) -> (R, Vec<distvliw_obs::trace::SpanRecord>) {
        use distvliw_obs::trace::{self, TraceCtx};
        let sink = trace::TraceSink::new();
        let out = trace::with_ctx(TraceCtx::for_sink(&sink), f);
        let (records, dropped) = sink.take();
        assert_eq!(dropped, 0);
        (out, records)
    }

    /// The string field `name` of a span.
    fn field(record: &distvliw_obs::trace::SpanRecord, name: &str) -> Option<String> {
        record
            .fields
            .iter()
            .find(|(k, _)| *k == name)
            .map(|(_, v)| match v {
                distvliw_obs::trace::FieldValue::Str(s) => s.clone(),
                other => panic!("{name} is not a string: {other:?}"),
            })
    }

    /// Runs `f` under a fresh trace sink and reports the kernels whose
    /// compile searched (`compile` spans with `memo=miss`, in completion
    /// order; each ran one `sched.schedule` search) and how many
    /// compiles the memo answered (`memo=hit`).
    fn traced<R>(f: impl FnOnce() -> R) -> (R, Vec<String>, usize) {
        let (out, records) = spans(f);
        let compiles: Vec<_> = records.iter().filter(|r| r.name == "compile").collect();
        let searched: Vec<String> = compiles
            .iter()
            .filter(|r| field(r, "memo").as_deref() == Some("miss"))
            .map(|r| field(r, "kernel").expect("compile spans name their kernel"))
            .collect();
        let searches = records
            .iter()
            .filter(|r| r.name == "sched.schedule")
            .count();
        assert_eq!(searches, searched.len(), "one search per memo miss");
        let hits = compiles.len() - searched.len();
        (out, searched, hits)
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
        let memo = Arc::new(PipelineMemo::new());
        let (cold, searched, _) = traced(|| {
            Pipeline::new(machine())
                .with_memo(memo.clone())
                .run_suite(&suite, Solution::Mdc, Heuristic::PrefClus)
                .unwrap()
        });
        assert_eq!(searched.len(), memo.schedules.cache.lock().unwrap().len());

        let warm_pipeline = Pipeline::new(machine()).with_memo(memo);
        let (warm, searched, hits) = traced(|| {
            warm_pipeline
                .run_suite(&suite, Solution::Mdc, Heuristic::PrefClus)
                .unwrap()
        });
        assert_eq!((searched.len(), hits), (0, suite.kernels.len()));
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
    fn a_full_memo_evicts_its_least_recently_used_problem() {
        let suite = distvliw_mediabench::suite("gsmdec").unwrap();
        // The same suite without its first kernel poses the same
        // problems but that kernel's (the key holds no kernel name).
        let mut tail = suite.clone();
        tail.kernels.remove(0);
        let memo = Arc::new(PipelineMemo::new());
        let compile = |suite: &Suite| {
            traced(|| {
                Pipeline::new(machine())
                    .with_memo(memo.clone())
                    .compile_suite(suite, Solution::Mdc, Heuristic::PrefClus)
                    .unwrap()
            })
        };
        let len = || memo.schedules.cache.lock().unwrap().len();
        let names: Vec<String> = suite.kernels.iter().map(|k| k.name.clone()).collect();
        let (cold, searched, _) = compile(&suite);
        assert_eq!(searched, names, "every kernel poses its own problem");
        // Fill the memo with other problems, then touch the tail's, so
        // the first kernel's problem is the least recently used.
        let filler = memo.schedules.cache.lock().unwrap().entries_by_recency()[0]
            .1
            .clone();
        let foreign = |i: usize| CacheKey::from_bytes(format!("foreign {i}").into_bytes());
        for i in len()..MEMO_CAPACITY {
            memo.schedules
                .cache
                .lock()
                .unwrap()
                .insert(foreign(i), filler.clone());
        }
        let (warm, searched, _) = compile(&tail);
        assert!(searched.is_empty(), "a full memo still answers");
        memo.schedules
            .cache
            .lock()
            .unwrap()
            .insert(foreign(MEMO_CAPACITY), filler);
        assert_eq!(len(), MEMO_CAPACITY);

        let (again, searched, hits) = compile(&suite);
        assert_eq!(searched, names[..1], "only the evicted problem is searched");
        assert_eq!(hits, names.len() - 1);
        for (i, c) in cold.kernels.iter().enumerate() {
            assert_eq!(again.kernels[i].schedule, c.schedule, "{}", names[i]);
            // The search that ran again is the cold one; the rest hit.
            let expected = if i == 0 { c } else { &warm.kernels[i - 1] };
            assert_eq!(again.kernels[i].sched, expected.sched, "{}", names[i]);
        }
    }

    #[test]
    fn concurrent_compiles_search_each_problem_once() {
        // Four threads released at once compile one suite on machines
        // that differ only in a simulation field, so all four pose the
        // same problems at the same time. The memo's single flight lets
        // one thread search each problem and the others wait for it.
        let suite = distvliw_mediabench::suite("epicenc").unwrap();
        let machines: Vec<MachineConfig> = (0..4)
            .map(|extra| {
                let mut m = machine();
                m.mem_buses.count += extra;
                m
            })
            .collect();
        let run = |memo: &Arc<PipelineMemo>, m: &MachineConfig| {
            Pipeline::new(m.clone())
                .with_memo(memo.clone())
                .run_suite(&suite, Solution::Mdc, Heuristic::PrefClus)
                .unwrap()
                .sched
        };
        let sum = |runs: &[SchedTotals]| {
            let mut total = SchedTotals::default();
            for r in runs {
                total += r;
            }
            total
        };

        let serial_memo = Arc::new(PipelineMemo::new());
        let (serial, serial_searched, _) = traced(|| {
            machines
                .iter()
                .map(|m| run(&serial_memo, m))
                .collect::<Vec<_>>()
        });

        let memo = Arc::new(PipelineMemo::new());
        let barrier = std::sync::Barrier::new(machines.len());
        let (parallel, searched, hits) = traced(|| {
            let ctx = distvliw_obs::trace::current_ctx();
            std::thread::scope(|scope| {
                let threads: Vec<_> = machines
                    .iter()
                    .map(|m| {
                        let (ctx, memo, barrier) = (ctx.clone(), &memo, &barrier);
                        scope.spawn(move || {
                            distvliw_obs::trace::with_ctx(ctx, || {
                                barrier.wait();
                                run(memo, m)
                            })
                        })
                    })
                    .collect();
                threads
                    .into_iter()
                    .map(|t| t.join().unwrap())
                    .collect::<Vec<_>>()
            })
        });
        let distinct = memo.schedules.cache.lock().unwrap().len();
        assert_eq!(searched.len(), distinct, "one search per distinct problem");
        assert_eq!(serial_searched.len(), distinct);
        assert_eq!(hits, 4 * suite.kernels.len() - distinct);
        assert_eq!(sum(&parallel), sum(&serial));
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
        let memo = Arc::new(PipelineMemo::new());
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
        assert_eq!((searched.len(), hits), (0, suite.kernels.len()));
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
    fn sim_key_covers_every_simulation_input() {
        // A DDGT kernel with cross-cluster copies, on the machine its
        // suite simulates on.
        let suite = distvliw_mediabench::suite("gsmdec").unwrap();
        let artifact = Pipeline::new(machine())
            .compile_suite(&suite, Solution::Ddgt, Heuristic::PrefClus)
            .unwrap();
        let compiled = artifact
            .kernels
            .iter()
            .find(|k| !k.schedule.copies.is_empty())
            .expect("a gsmdec DDGT schedule has copies");
        let sim_machine = machine().with_interleave(suite.interleave_bytes);
        // The key of a simulation, its kernel and schedule entering
        // through the two digests the memo entries store.
        let key = |m: &MachineConfig, k: &LoopKernel, s: &Schedule| {
            sim_key(m, &kernel_digest(k), &schedule_digest(s))
        };
        let base = key(&sim_machine, &compiled.kernel, &compiled.schedule);
        assert_eq!(
            base,
            sim_key(
                &sim_machine,
                &compiled.kernel_digest,
                &compiled.schedule_digest
            ),
            "an artifact carries the digests of its own kernel and schedule"
        );
        let kernel = || (*compiled.kernel).clone();
        let schedule = || (*compiled.schedule).clone();
        let (site, stream) = compiled.kernel.exec.iter().next().expect("a memory site");
        let moved = match stream {
            distvliw_ir::AddressStream::Affine { base, stride } => {
                distvliw_ir::AddressStream::Affine {
                    base: base + 4,
                    stride: *stride,
                }
            }
            distvliw_ir::AddressStream::Indexed(addrs) => {
                distvliw_ir::AddressStream::Indexed(addrs.iter().map(|a| a + 4).collect())
            }
        };
        let ddg = &compiled.kernel.ddg;
        let load = ddg.loads().next().expect("a load");
        let alu = ddg
            .node_ids()
            .find(|&n| ddg.node(n).kind == OpKind::IntAlu)
            .expect("an integer op");
        let (edge, dep) = ddg.deps().next().expect("an edge");

        let mut misses = Vec::new();
        let mut m = sim_machine.clone();
        m.mem_buses.count += 1;
        misses.push(("memory buses", key(&m, &kernel(), &schedule())));
        let m = sim_machine
            .clone()
            .with_attraction_buffers(distvliw_arch::AttractionBufferConfig::paper());
        misses.push(("attraction buffers", key(&m, &kernel(), &schedule())));
        let m = sim_machine
            .clone()
            .with_interleave(2 * suite.interleave_bytes);
        misses.push(("interleave", key(&m, &kernel(), &schedule())));
        let mut m = sim_machine.clone();
        m.cache.assoc *= 2;
        misses.push(("cache geometry", key(&m, &kernel(), &schedule())));
        let mut k = kernel();
        k.ddg.node_mut(alu).kind = OpKind::IntMul;
        misses.push(("op kind", key(&sim_machine, &k, &schedule())));
        let mut k = kernel();
        let mem = k.ddg.node_mut(load).mem.as_mut().unwrap();
        mem.width = if mem.width == Width::W8 {
            Width::W4
        } else {
            Width::W8
        };
        misses.push(("access width", key(&sim_machine, &k, &schedule())));
        let mut k = kernel();
        k.ddg.remove_dep(edge);
        k.ddg.add_dep(dep.src, dep.dst, dep.kind, dep.distance + 1);
        misses.push(("edge distance", key(&sim_machine, &k, &schedule())));
        let mut k = kernel();
        k.ddg.add_dep(load, alu, DepKind::MemFlow, 1);
        misses.push(("extra edge", key(&sim_machine, &k, &schedule())));
        let mut k = kernel();
        k.exec.insert(site, moved.clone());
        misses.push(("exec stream base", key(&sim_machine, &k, &schedule())));
        let mut k = kernel();
        k.trip_count += 1;
        misses.push(("trip", key(&sim_machine, &k, &schedule())));
        let mut k = kernel();
        k.invocations += 1;
        misses.push(("invocations", key(&sim_machine, &k, &schedule())));
        let mut s = schedule();
        s.ii += 1;
        misses.push(("II", key(&sim_machine, &kernel(), &s)));
        let mut s = schedule();
        s.ops.values_mut().next().unwrap().start += 1;
        misses.push(("op start", key(&sim_machine, &kernel(), &s)));
        let mut s = schedule();
        let op = s.ops.values_mut().next().unwrap();
        op.cluster = (op.cluster + 1) % sim_machine.n_clusters;
        misses.push(("op cluster", key(&sim_machine, &kernel(), &s)));
        let mut s = schedule();
        s.copies[0].start += 1;
        misses.push(("copy start", key(&sim_machine, &kernel(), &s)));
        let mut s = schedule();
        s.copies[0].to_cluster = (s.copies[0].to_cluster + 1) % sim_machine.n_clusters;
        misses.push(("copy target", key(&sim_machine, &kernel(), &s)));
        for (what, key) in &misses {
            assert_ne!(*key, base, "changing the {what} must miss");
        }

        // The simulator reads neither the name nor the profile image, so
        // a kernel differing only there hits the stored run.
        let mut k = kernel();
        k.name.push_str(" (renamed)");
        k.profile.insert(site, moved);
        assert_eq!(key(&sim_machine, &k, &schedule()), base);
        // Built through the constructor, which recomputes both digests,
        // so the hit below comes from the renamed kernel's own content.
        let renamed = SuiteArtifact {
            kernels: vec![KernelArtifact::new(k, schedule(), compiled.sched)],
            ..artifact.clone()
        };
        let original = SuiteArtifact {
            kernels: vec![compiled.clone()],
            ..artifact.clone()
        };
        let pipeline = Pipeline::new(machine());
        let simulate = |artifact: &SuiteArtifact| {
            let (run, records) = spans(|| pipeline.simulate_artifact(artifact));
            let memo: Vec<String> = records
                .iter()
                .filter(|r| r.name == "sim")
                .filter_map(|r| field(r, "memo"))
                .collect();
            (run, memo)
        };
        let (first, memo) = simulate(&renamed);
        assert_eq!(memo, ["miss"]);
        let (second, memo) = simulate(&original);
        assert_eq!(memo, ["hit"]);
        assert_eq!(first.total, second.total);
        assert_eq!(first.cluster, second.cluster);
        // A kernel the simulator reads differently misses end to end.
        let mut k = kernel();
        k.trip_count += 1;
        let longer = SuiteArtifact {
            kernels: vec![KernelArtifact::new(k, schedule(), compiled.sched)],
            ..artifact.clone()
        };
        assert_eq!(simulate(&longer).1, ["miss"]);
    }

    /// A named change to one machine field.
    type Perturbation = (&'static str, fn(&mut MachineConfig));

    #[test]
    fn compile_key_covers_every_front_end_input() {
        let base_machine = machine().with_interleave(2);
        let fingerprint = [7u8; 16];
        let key = |fingerprint: &[u8; 16],
                   index: usize,
                   m: &MachineConfig,
                   solution: Solution,
                   heuristic: Heuristic,
                   relax: bool| {
            compile_key(fingerprint, m, solution, heuristic, relax, index)
        };
        let (mdc, pref) = (Solution::Mdc, Heuristic::PrefClus);
        let base = key(&fingerprint, 1, &base_machine, mdc, pref, true);

        // Every field of the scheduler projection, one at a time.
        let sched_fields: [Perturbation; 10] = [
            ("cluster count", |m| m.n_clusters *= 2),
            ("integer units", |m| m.fu.integer += 1),
            ("fp units", |m| m.fu.fp += 1),
            ("memory units", |m| m.fu.memory += 1),
            ("register buses", |m| m.reg_buses.count += 1),
            ("register-bus latency", |m| m.reg_buses.latency += 1),
            ("registers per cluster", |m| m.regs_per_cluster += 1),
            ("interleave", |m| m.interleave_bytes *= 2),
            ("cache latency", |m| m.cache.latency += 1),
            ("memory-bus latency", |m| m.mem_buses.latency += 1),
        ];
        let mut misses = vec![
            (
                "fingerprint",
                key(&[8; 16], 1, &base_machine, mdc, pref, true),
            ),
            (
                "kernel index",
                key(&fingerprint, 2, &base_machine, mdc, pref, true),
            ),
            (
                "solution",
                key(&fingerprint, 1, &base_machine, Solution::Ddgt, pref, true),
            ),
            (
                "heuristic",
                key(
                    &fingerprint,
                    1,
                    &base_machine,
                    mdc,
                    Heuristic::MinComs,
                    true,
                ),
            ),
            (
                "relax flag",
                key(&fingerprint, 1, &base_machine, mdc, pref, false),
            ),
        ];
        let mut next_level = base_machine.clone();
        next_level.next_level.latency += 1;
        misses.push((
            "next-level latency",
            key(&fingerprint, 1, &next_level, mdc, pref, true),
        ));
        for (what, perturb) in sched_fields {
            let mut m = base_machine.clone();
            perturb(&mut m);
            misses.push((what, key(&fingerprint, 1, &m, mdc, pref, true)));
        }
        for (what, k) in &misses {
            assert_ne!(*k, base, "changing the {what} must miss");
        }

        // Simulation-only fields leave the front end alone.
        let sim_fields: [Perturbation; 6] = [
            ("memory buses", |m| m.mem_buses.count += 1),
            ("attraction buffers", |m| {
                m.attraction_buffers = Some(distvliw_arch::AttractionBufferConfig::paper());
            }),
            ("cache size", |m| m.cache.total_bytes *= 2),
            ("cache block", |m| m.cache.block_bytes *= 2),
            ("cache associativity", |m| m.cache.assoc *= 2),
            ("next-level ports", |m| m.next_level.ports += 1),
        ];
        for (what, perturb) in sim_fields {
            let mut m = base_machine.clone();
            perturb(&mut m);
            assert_eq!(
                key(&fingerprint, 1, &m, mdc, pref, true),
                base,
                "the {what} is simulation-only"
            );
        }
    }

    #[test]
    fn warm_compile_memo_reproduces_a_cold_run_suite() {
        // A compile memo hit must give byte for byte what a recomputed
        // front end gives, search effort included. Both memos see the
        // same run sequence, so their schedule tables stay in step; the
        // cold one loses its compile table before every run.
        let suite = distvliw_mediabench::suite("epicenc").unwrap();
        let fingerprint = digest_fingerprint(&cachekey::suite_digest(&suite));
        let mut variant = machine();
        variant.mem_buses.count += 1;
        let cold_memo = Arc::new(PipelineMemo::new());
        let warm_memo = Arc::new(PipelineMemo::new());
        let fronts = |records: &[distvliw_obs::trace::SpanRecord]| -> Vec<String> {
            records
                .iter()
                .filter(|r| r.name == "compile")
                .map(|r| field(r, "front").expect("a compile reports its front end"))
                .collect()
        };
        let mut hits = 0;
        for m in [machine(), variant, machine()] {
            for solution in [Solution::Mdc, Solution::Ddgt, Solution::Hybrid] {
                let pipeline =
                    |memo: &Arc<PipelineMemo>| Pipeline::new(m.clone()).with_memo(memo.clone());
                *cold_memo.fronts.cache.lock().unwrap() = ResultCache::new(COMPILE_MEMO_CAPACITY);
                let (cold, cold_records) = spans(|| {
                    pipeline(&cold_memo)
                        .run_suite(&suite, solution, Heuristic::PrefClus)
                        .unwrap()
                });
                let (warm, warm_records) = spans(|| {
                    pipeline(&warm_memo)
                        .run_fingerprinted_suite(
                            &suite,
                            &fingerprint,
                            solution,
                            Heuristic::PrefClus,
                        )
                        .unwrap()
                });
                assert_eq!(format!("{warm:?}"), format!("{cold:?}"));
                assert_eq!(warm.sched, cold.sched);
                let compiles =
                    suite.kernels.len() * (1 + usize::from(solution == Solution::Hybrid));
                assert_eq!(fronts(&cold_records), vec!["miss"; compiles]);
                let warm_fronts = fronts(&warm_records);
                assert_eq!(warm_fronts.len(), compiles);
                hits += warm_fronts.iter().filter(|f| *f == "hit").count();
            }
        }
        // MDC and DDGT each compiled every kernel once, on the first
        // machine: the variant shares its scheduler projection, so every
        // later compile was a hit.
        let n = suite.kernels.len();
        assert_eq!(warm_memo.fronts.cache.lock().unwrap().len(), 2 * n);
        assert_eq!(hits, 3 * 4 * n - 2 * n);
    }

    #[test]
    fn concurrent_cells_compile_each_front_end_once() {
        // Four threads released at once run the served entry point on
        // machines that differ only in a simulation field, so every
        // kernel poses one compile key to all four at the same time.
        let suite = distvliw_mediabench::suite("epicenc").unwrap();
        let fingerprint = digest_fingerprint(&cachekey::suite_digest(&suite));
        let memo = Arc::new(PipelineMemo::new());
        let barrier = std::sync::Barrier::new(4);
        let hits = compile_memo_hits().get();
        let ((), records) = spans(|| {
            let ctx = distvliw_obs::trace::current_ctx();
            std::thread::scope(|scope| {
                for extra in 0..4 {
                    let (ctx, memo, barrier, suite) = (ctx.clone(), &memo, &barrier, &suite);
                    scope.spawn(move || {
                        distvliw_obs::trace::with_ctx(ctx, || {
                            let mut m = machine();
                            m.mem_buses.count += extra;
                            barrier.wait();
                            Pipeline::new(m)
                                .with_memo(memo.clone())
                                .run_fingerprinted_suite(
                                    suite,
                                    &fingerprint,
                                    Solution::Ddgt,
                                    Heuristic::MinComs,
                                )
                                .unwrap();
                        });
                    });
                }
            });
        });
        let fronts: Vec<String> = records
            .iter()
            .filter(|r| r.name == "compile")
            .map(|r| field(r, "front").unwrap())
            .collect();
        let n = suite.kernels.len();
        assert_eq!(fronts.len(), 4 * n);
        assert_eq!(fronts.iter().filter(|f| *f == "miss").count(), n);
        assert_eq!(memo.fronts.cache.lock().unwrap().len(), n);
        // Other tests share the global registry, so the counter moved by
        // at least this test's hits.
        assert!(compile_memo_hits().get() - hits >= 3 * n as u64);
    }

    #[test]
    fn the_checker_verifies_compile_memo_hits() {
        // A served compile whose front end is a memo hit still runs the
        // checker: plant a broken schedule under the stored problem key,
        // and the hit that reaches it is rejected.
        let suite = distvliw_mediabench::suite("gsmdec").unwrap();
        let fingerprint = digest_fingerprint(&cachekey::suite_digest(&suite));
        let memo = Arc::new(PipelineMemo::new());
        let pipeline = Pipeline::new(machine())
            .with_options(PipelineOptions {
                check: true,
                ..PipelineOptions::default()
            })
            .with_memo(memo.clone());
        let run = || {
            pipeline.run_fingerprinted_suite(
                &suite,
                &fingerprint,
                Solution::Mdc,
                Heuristic::MinComs,
            )
        };
        run().unwrap();
        let fronts = memo.fronts.cache.lock().unwrap().entries_by_recency();
        let seed_key = fronts[0].1.seed_key.clone();
        let mut schedules = memo.schedules.cache.lock().unwrap();
        let solved = schedules.get(&seed_key).unwrap();
        let mut broken = (*solved.schedule).clone();
        for op in broken.ops.values_mut() {
            op.start = 0;
        }
        schedules.insert(
            seed_key,
            Arc::new(Solved {
                digest: schedule_digest(&broken),
                schedule: Arc::new(broken),
                record: solved.record.clone(),
            }),
        );
        drop(schedules);
        // Debug builds assert on a rejected schedule; release builds
        // fail the compile.
        match std::panic::catch_unwind(std::panic::AssertUnwindSafe(run)) {
            Ok(Err(PipelineError::Check { .. })) => {}
            Err(panic) => {
                let message = panic
                    .downcast_ref::<String>()
                    .expect("a formatted panic message");
                assert!(message.contains("checker rejected"), "{message}");
            }
            Ok(other) => panic!("the broken schedule was served: {other:?}"),
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
