//! The lockstep, stall-on-use execution engine.
//!
//! Executes a modulo [`Schedule`] over the iterations of a [`LoopKernel`]
//! against the [`MemorySystem`]. Two clocks are kept: the *issue clock*
//! advances one VLIW row per step (compute time), and the *real clock* is
//! the issue clock plus all accumulated stalls. In a stall-on-use
//! processor the whole machine freezes when any issuing operation's
//! operand has not arrived (paper Section 2.1) — so a stall is simply an
//! increment of the global stall counter.
//!
//! The engine is organized for throughput (see `docs/sim.md`):
//!
//! * a **dense event queue** — schedule rows bucketed by issue phase
//!   (`row % II`), so each simulated cycle touches only the rows that can
//!   fire then and empty cycles cost one array probe;
//! * **ring-buffer operand tables** — per-`(node, iteration)` ready times
//!   live in flat tag-checked rings sized to the live iteration window,
//!   replacing per-event hash lookups;
//! * **batched address streams** — each cycle's memory accesses are
//!   gathered into one contiguous slice and handed to
//!   [`MemorySystem::run_batch`] in a single call.
//!
//! All three are pure performance changes: statistics are bit-identical
//! to the per-cycle scan engine (pinned by `tests/golden/sim_stats.txt`).

use std::sync::OnceLock;

use distvliw_arch::{MachineConfig, MAX_CLUSTERS, MAX_LATENCY};
use distvliw_ir::alias::{self, Access};
use distvliw_ir::{
    AddressStream, DepKind, LoopKernel, NodeId, OpKind, MAX_INVOCATIONS, MAX_KERNEL_OPS,
    MAX_TRIP_COUNT,
};
use distvliw_obs::{Counter, Histogram};
use distvliw_sched::Schedule;

use crate::memsys::{AccessResult, BatchAccess, MemorySystem};
use crate::stats::{ClusterUsage, SimStats};
use crate::violation::ViolationDetector;

/// Simulation options: none, as every iteration is simulated. The type
/// and the parameter remain only for the benchmark's replay, which still
/// passes `SimOptions::default()`; both go with that replay.
#[derive(Debug, Clone, Copy, Default)]
pub struct SimOptions;

// The kernel limits keep every scaled counter below 2^63: per iteration
// fewer than `2 · ops · clusters` events, each delaying the machine by at
// most four latencies, on top of a `u32` II (see `MAX_TRIP_COUNT`).
const _: () = {
    let events = 2 * MAX_KERNEL_OPS as u128 * MAX_CLUSTERS as u128;
    let per_iteration = (1 << u32::BITS) + events * 4 * MAX_LATENCY as u128;
    assert!(MAX_TRIP_COUNT as u128 * MAX_INVOCATIONS as u128 * per_iteration < 1 << 63);
};

/// One issue event: an operation or an inter-cluster copy.
#[derive(Debug, Clone, Copy)]
enum Event {
    Op(NodeId),
    Copy(usize),
}

/// How one scheduled node executes, resolved once before the main loop so
/// the per-cycle path never consults the DDG or the address-image maps.
/// Address streams are borrowed from the kernel — no per-simulation
/// clone.
#[derive(Debug, Clone, Copy)]
enum ExecKind<'a> {
    /// A load from the given address stream.
    Load {
        /// The execution-input address stream of the load's access site.
        stream: &'a AddressStream,
        /// Access width in bytes.
        width: u64,
    },
    /// A store; `gated` marks DDGT replica-group members, which only
    /// commit in the accessed address's home cluster.
    Store {
        /// The execution-input address stream of the store's access site.
        stream: &'a AddressStream,
        /// Access width in bytes.
        width: u64,
        /// Whether the home-cluster check gates execution.
        gated: bool,
    },
    /// Every other operation: produces its value after a fixed latency.
    Alu {
        /// The operation's base latency in cycles.
        latency: u64,
    },
}

/// Whether the violation detector can count anything when the memory
/// nodes of `exec`, issuing from `cluster`, run for iterations
/// `0..iters`. Only a store and a load that can issue from different
/// clusters race: same-cluster pairs reach the home module in program
/// order (paper §3.2, facts 1–3), and a gated DDGT store commits in
/// whichever cluster its address lives, so it races with every load.
/// Such a pair must also share one of the detector's 2-byte granules,
/// which two accesses do only if their byte ranges overlap or are
/// adjacent; asking the exact alias oracle with both widths one byte
/// wider turns "overlap or adjacent" into plain overlap. When this
/// returns `false`, recording is provably a no-op and the engine skips
/// it, with byte-identical (zero) counts.
fn hazard_possible(exec: &[ExecKind<'_>], cluster: &[usize], iters: u64) -> bool {
    let padded = |stream, width: u64| Access::with_bytes(stream, width + 1);
    let (mut stores, mut loads) = (Vec::new(), Vec::new());
    for (kind, &c) in exec.iter().zip(cluster) {
        match *kind {
            ExecKind::Load { stream, width } => loads.push((padded(stream, width), c)),
            ExecKind::Store {
                stream,
                width,
                gated,
            } => stores.push((padded(stream, width), (!gated).then_some(c))),
            ExecKind::Alu { .. } => {}
        }
    }
    stores.iter().any(|(store, sc)| {
        loads
            .iter()
            .any(|(load, lc)| *sc != Some(*lc) && alias::overlap_any(store, load, iters))
    })
}

/// A flat ring of `iteration → ready-time` cells per slot, tag-checked so
/// a stale or never-written cell reads as "not produced" (ready time 0) —
/// exactly the semantics of a missing hash-map entry. The ring `window`
/// covers the maximum distance between a value's production and its last
/// architecturally possible use (max dependence distance + pipeline
/// stages + slack), so no live value is ever overwritten; see
/// `docs/sim.md` for the bound's derivation.
struct RingTable {
    vals: Vec<u64>,
    tags: Vec<u64>,
    /// Ring length minus one; the length is rounded up to a power of two
    /// so the per-access ring index is a mask instead of a modulo. A
    /// larger ring only reduces cell aliasing, and aliased cells are
    /// already tag-checked, so the rounding cannot change any lookup.
    window_mask: u64,
}

impl RingTable {
    fn new(slots: usize, window: usize) -> Self {
        let window = window.next_power_of_two();
        RingTable {
            vals: vec![0; slots * window],
            tags: vec![u64::MAX; slots * window],
            window_mask: window as u64 - 1,
        }
    }

    #[inline]
    fn idx(&self, slot: usize, iter: u64) -> usize {
        slot * (self.window_mask as usize + 1) + (iter & self.window_mask) as usize
    }

    /// The value recorded for `(slot, iter)`, or 0 when none was.
    #[inline]
    fn get(&self, slot: usize, iter: u64) -> u64 {
        let i = self.idx(slot, iter);
        if self.tags[i] == iter {
            self.vals[i]
        } else {
            0
        }
    }

    #[inline]
    fn set(&mut self, slot: usize, iter: u64, value: u64) {
        let i = self.idx(slot, iter);
        self.tags[i] = iter;
        self.vals[i] = value;
    }
}

/// One register-flow input of a consumer, with the routing decision
/// (same-cluster → producer's own ready time, cross-cluster → the
/// scheduled copy's arrival) resolved statically.
#[derive(Debug, Clone, Copy)]
struct RfInput {
    producer: u32,
    distance: u64,
    via_copy: bool,
}

/// Simulates `schedule` executing `kernel` on `machine` and returns the
/// aggregate statistics for **all** invocations of the loop (every
/// iteration of one invocation is simulated against a cold memory system
/// and scaled; the attraction buffers are flushed at the loop boundary by
/// construction).
///
/// # Panics
///
/// Panics if the schedule does not cover the kernel's graph, if a memory
/// operation misses its execution address stream, or if scaling
/// overflows, which [`LoopKernel::validate`]'s limits rule out.
#[must_use]
pub fn simulate_kernel(
    machine: &MachineConfig,
    kernel: &LoopKernel,
    schedule: &Schedule,
    options: SimOptions,
) -> SimStats {
    simulate_kernel_detailed(machine, kernel, schedule, options).0
}

/// Like [`simulate_kernel`], additionally returning the per-cluster
/// resource usage ([`ClusterUsage`]): the classified accesses each
/// cluster issued, the violations attributed to each cluster and the
/// bus / next-level grant counts, all scaled the same way as the
/// aggregate statistics. The [`SimStats`] component is identical to what
/// [`simulate_kernel`] returns.
///
/// # Panics
///
/// As [`simulate_kernel`].
#[must_use]
pub fn simulate_kernel_detailed(
    machine: &MachineConfig,
    kernel: &LoopKernel,
    schedule: &Schedule,
    _options: SimOptions,
) -> (SimStats, ClusterUsage) {
    let run = simulate_kernel_run(machine, kernel, schedule);
    (run.stats, run.cluster)
}

/// The simulator's own work in one run, before scaling by invocations:
/// what the `sim_*` work counters count, so a memoized run can count
/// again exactly what the simulation that produced it counted.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SimWork {
    /// Cycles the event loop walked (compute + stall).
    pub cycles: u64,
    /// Stall-on-use cycles.
    pub stall_cycles: u64,
    /// Memory-system batch windows.
    pub batches: u64,
    /// Memory-bus busy cycles.
    pub bus_busy_cycles: u64,
    /// Granules the violation detector tracked (0 when the hazard
    /// precheck skipped it).
    pub detector_granules: u64,
}

/// One kernel simulation: what [`simulate_kernel_detailed`] returns,
/// plus the work it took.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SimRun {
    /// Simulation statistics (all invocations).
    pub stats: SimStats,
    /// Per-cluster resource usage (all invocations).
    pub cluster: ClusterUsage,
    /// The simulator's work, one invocation.
    pub work: SimWork,
}

/// Counts one kernel simulation into the `sim_*` work families: one
/// that just ran (`memoized` false) and one a memo returns in place of
/// running it (`memoized` true, also counted in `sim_memo_hits_total`)
/// count the same way, at the work their [`SimWork`] reports. Only a
/// simulation that ran records `sim_kernel_duration_us`.
pub fn count_simulation(work: &SimWork, memoized: bool) {
    let metrics = metrics();
    metrics.kernels.inc();
    metrics.cycles.add(work.cycles);
    metrics.stall_cycles.add(work.stall_cycles);
    metrics.batches.add(work.batches);
    metrics.bus_busy_cycles.add(work.bus_busy_cycles);
    metrics.detector_granules.add(work.detector_granules);
    metrics.memo_hits.add(u64::from(memoized));
}

/// Simulates `schedule` executing `kernel` on `machine`, as
/// [`simulate_kernel_detailed`] does, and also returns the work the run
/// counted ([`count_simulation`]).
///
/// # Panics
///
/// As [`simulate_kernel`].
#[must_use]
pub fn simulate_kernel_run(
    machine: &MachineConfig,
    kernel: &LoopKernel,
    schedule: &Schedule,
) -> SimRun {
    let sim_start = std::time::Instant::now();
    let mut sim_span = distvliw_obs::Span::enter("sim.kernel");
    let ddg = &kernel.ddg;
    let ii = u64::from(schedule.ii.max(1));
    let span = u64::from(schedule.span);
    let trip = kernel.trip_count.max(1);
    let n_clusters = machine.n_clusters;

    // Rows: events indexed by absolute start cycle, then bucketed by
    // issue phase (`row % II`). At issue cycle t only rows congruent to
    // t mod II can fire, so the per-cycle walk touches exactly the rows
    // of one bucket and an empty phase costs a single probe.
    let mut rows: Vec<Vec<Event>> = vec![Vec::new(); span as usize];
    for (&n, op) in &schedule.ops {
        rows[op.start as usize].push(Event::Op(n));
    }
    for (k, c) in schedule.copies.iter().enumerate() {
        rows[c.start as usize].push(Event::Copy(k));
    }
    let mut phase_rows: Vec<Vec<u64>> = vec![Vec::new(); ii as usize];
    for s in 0..span {
        if !rows[s as usize].is_empty() {
            phase_rows[(s % ii) as usize].push(s);
        }
    }

    let n_nodes = ddg.node_ids().map(|n| n.index() + 1).max().unwrap_or(0);

    // Replica groups: nodes that execute conditionally on the home check.
    let mut in_group = vec![false; n_nodes];
    for n in ddg.node_ids() {
        if let Some(root) = ddg.replica_of(n) {
            in_group[n.index()] = true;
            in_group[root.index()] = true;
        }
    }

    // Per-node execution recipe, cluster and sequence number, resolved
    // once so the hot loop is pure array indexing.
    let mut cluster = vec![0usize; n_nodes];
    let mut seq = vec![0u64; n_nodes];
    let mut exec: Vec<ExecKind<'_>> = vec![ExecKind::Alu { latency: 0 }; n_nodes];
    for (&n, op) in &schedule.ops {
        let ni = n.index();
        cluster[ni] = op.cluster;
        seq[ni] = u64::from(ddg.seq(n));
        let node = ddg.node(n);
        exec[ni] = match node.kind {
            OpKind::Load => ExecKind::Load {
                stream: kernel
                    .exec
                    .get(node.mem_id().expect("load has a site"))
                    .expect("load has a bound address stream"),
                width: node.mem.expect("load has a site").width.bytes(),
            },
            OpKind::Store => ExecKind::Store {
                stream: kernel
                    .exec
                    .get(node.mem_id().expect("store has a site"))
                    .expect("store has a bound address stream"),
                width: node.mem.expect("store has a site").width.bytes(),
                gated: in_group[ni],
            },
            kind => ExecKind::Alu {
                latency: u64::from(kind.base_latency()),
            },
        };
    }
    let detect = hazard_possible(&exec, &cluster, trip);

    // Register-flow inputs flattened to CSR, routing pre-resolved.
    let mut input_lists: Vec<Vec<RfInput>> = vec![Vec::new(); n_nodes];
    let mut max_distance = 0u64;
    for (_, d) in ddg.deps() {
        if d.kind == DepKind::RegFlow && d.src != d.dst {
            let distance = u64::from(d.distance);
            max_distance = max_distance.max(distance);
            input_lists[d.dst.index()].push(RfInput {
                producer: d.src.0,
                distance,
                via_copy: schedule.op(d.src).cluster != schedule.op(d.dst).cluster,
            });
        }
    }
    let mut rf_off: Vec<usize> = Vec::with_capacity(n_nodes + 1);
    let mut rf_inputs: Vec<RfInput> = Vec::new();
    rf_off.push(0);
    for list in &input_lists {
        rf_inputs.extend_from_slice(list);
        rf_off.push(rf_inputs.len());
    }

    let body_seq_span = u64::from(ddg.node_ids().map(|n| ddg.seq(n)).max().unwrap_or(0) + 1);

    // Operand ready times: `(node, iter)` and `(producer, cluster, iter)`
    // cells in tag-checked rings sized to the live iteration window.
    let window = (max_distance + span.div_ceil(ii) + 2) as usize;
    let mut ready = RingTable::new(n_nodes, window);
    let mut copy_ready = RingTable::new(n_nodes * n_clusters, window);

    let mut ms = MemorySystem::new(machine);
    let mut detector = ViolationDetector::new();

    let total_rows = (trip - 1) * ii + span;
    let mut stall = 0u64;
    let mut comm_ops = 0u64;
    let mut batches = 0u64;
    let bus_lat = u64::from(machine.reg_buses.latency);

    let mut batch: Vec<BatchAccess> = Vec::new();
    // (node index, iteration, width) per batched access, for the ready
    // table and the violation detector.
    let mut batch_meta: Vec<(usize, u64, u64)> = Vec::new();
    let mut batch_results: Vec<Option<AccessResult>> = Vec::new();
    // The events firing this cycle with their iteration, collected during
    // the stall walk so the execute pass scans one flat slice instead of
    // re-walking the phase's rows.
    let mut fire: Vec<(Event, u64)> = Vec::new();

    for t in 0..total_rows {
        let active = &phase_rows[(t % ii) as usize];
        if active.is_empty() {
            continue;
        }

        // Phase 1: stall-on-use — the row issues only once every operand
        // of every issuing operation has arrived. Rows are ascending, so
        // the first not-yet-reached row (pipeline fill) ends the walk;
        // drained rows (iteration past the trip) are skipped. Firing
        // events are collected as they are checked, so the execute pass
        // below consumes one flat slice.
        let now = t + stall;
        let mut need = now;
        fire.clear();
        for &s in active {
            if s > t {
                break;
            }
            let i = (t - s) / ii;
            if i >= trip {
                continue;
            }
            for &ev in &rows[s as usize] {
                fire.push((ev, i));
                match ev {
                    Event::Op(n) => {
                        let ni = n.index();
                        for inp in &rf_inputs[rf_off[ni]..rf_off[ni + 1]] {
                            let Some(src_iter) = i.checked_sub(inp.distance) else {
                                continue; // live-in from before the loop
                            };
                            let at = if inp.via_copy {
                                copy_ready
                                    .get(inp.producer as usize * n_clusters + cluster[ni], src_iter)
                            } else {
                                ready.get(inp.producer as usize, src_iter)
                            };
                            need = need.max(at);
                        }
                    }
                    Event::Copy(k) => {
                        need = need.max(ready.get(schedule.copies[k].producer.index(), i));
                    }
                }
            }
        }
        if fire.is_empty() {
            continue;
        }
        stall += need - now;
        let now = need;

        // Phase 2a: execute non-memory effects and gather the cycle's
        // memory accesses — in event order — into one contiguous batch.
        batch.clear();
        batch_meta.clear();
        for &(ev, i) in &fire {
            match ev {
                Event::Op(n) => {
                    let ni = n.index();
                    match &exec[ni] {
                        ExecKind::Alu { latency } => ready.set(ni, i, now + latency),
                        ExecKind::Load { stream, width } => {
                            batch.push(BatchAccess {
                                cluster: cluster[ni],
                                addr: stream.addr_at(i),
                                store: false,
                                executes: true,
                            });
                            batch_meta.push((ni, i, *width));
                        }
                        ExecKind::Store {
                            stream,
                            width,
                            gated,
                        } => {
                            let addr = stream.addr_at(i);
                            let executes = !gated || machine.home_cluster(addr) == cluster[ni];
                            batch.push(BatchAccess {
                                cluster: cluster[ni],
                                addr,
                                store: true,
                                executes,
                            });
                            batch_meta.push((ni, i, *width));
                        }
                    }
                }
                Event::Copy(k) => {
                    let c = &schedule.copies[k];
                    copy_ready.set(
                        c.producer.index() * n_clusters + c.to_cluster,
                        i,
                        now + bus_lat,
                    );
                    comm_ops += 1;
                }
            }
        }

        // Phase 2b: the memory system consumes the whole cycle window as
        // one slice; results are applied in the same event order, so the
        // violation detector sees the sequence an access-at-a-time engine
        // would have produced.
        if !batch.is_empty() {
            batches += 1;
            ms.run_batch(now, &batch, &mut batch_results);
            for ((req, res), &(ni, i, width)) in batch.iter().zip(&batch_results).zip(&batch_meta) {
                let po = i * body_seq_span + seq[ni];
                if req.store {
                    if let Some(res) = res {
                        if detect {
                            detector.record_store(req.addr, width, po, res.observed, req.cluster);
                        }
                    }
                } else {
                    let res = res.as_ref().expect("loads always produce a result");
                    ready.set(ni, i, res.ready);
                    if detect {
                        detector.record_load(req.addr, width, po, res.observed, req.cluster);
                    }
                }
            }
        }
    }

    let stats = SimStats {
        compute_cycles: total_rows,
        stall_cycles: stall,
        accesses: ms.counts,
        coherence_violations: detector.violations(),
        comm_ops,
        iterations: trip,
        bus_busy_cycles: ms.bus_busy_cycles(),
        // The drain window covers both the core and the bus tail, so
        // the capacity invariant (busy ≤ drain × bus count) is additive
        // across kernels.
        bus_drain_cycles: ms.bus_drain_cycles().max(total_rows + stall),
    };
    let usage = ClusterUsage {
        accesses: (0..n_clusters).map(|c| ms.counts_of_cluster(c)).collect(),
        violations: detector.violations_by_cluster().clone(),
        mem_bus_grants: ms.mem_bus_grants(),
        next_level_grants: ms.next_level_grants(),
    };

    // Observability: the simulated-work counters report what this call
    // walked, one invocation before scaling by invocations, so they
    // track simulator cost rather than modeled time.
    let work = SimWork {
        cycles: total_rows + stall,
        stall_cycles: stall,
        batches,
        bus_busy_cycles: stats.bus_busy_cycles,
        detector_granules: detector.tracked_granules(),
    };
    sim_span.field_u64("ii", ii);
    sim_span.field_u64("iterations", trip);
    sim_span.field_u64("cycles", work.cycles);
    sim_span.field_u64("batches", batches);
    sim_span.field_u64("granules", work.detector_granules);
    count_simulation(&work, false);
    metrics().duration.record_micros(sim_start.elapsed());

    let invocations = kernel.invocations.max(1);
    SimRun {
        stats: stats.scaled(invocations),
        cluster: usage.scaled(invocations),
        work,
    }
}

/// The simulator's metric families in the global registry.
struct Metrics {
    kernels: Counter,
    cycles: Counter,
    stall_cycles: Counter,
    batches: Counter,
    bus_busy_cycles: Counter,
    detector_granules: Counter,
    memo_hits: Counter,
    duration: Histogram,
}

/// The simulator's metric handles, every family registered on first use.
fn metrics() -> &'static Metrics {
    static METRICS: OnceLock<Metrics> = OnceLock::new();
    METRICS.get_or_init(|| {
        let reg = distvliw_obs::global();
        Metrics {
            kernels: reg.counter(
                "sim_kernels_total",
                "Kernel simulations served, memo hits included",
            ),
            cycles: reg.counter(
                "sim_cycles_total",
                "Cycles walked by the event loop (compute + stall; one invocation, before scaling by invocations)",
            ),
            stall_cycles: reg.counter(
                "sim_stall_cycles_total",
                "Stall-on-use cycles observed (one invocation, before scaling by invocations)",
            ),
            batches: reg.counter(
                "sim_batches_total",
                "Memory-system batch windows executed via run_batch",
            ),
            bus_busy_cycles: reg.counter(
                "sim_bus_busy_cycles_total",
                "Memory-bus busy cycles accumulated (one invocation, before scaling by invocations)",
            ),
            detector_granules: reg.counter(
                "sim_detector_granules_total",
                "Granules the violation detector tracked (one invocation, before scaling by invocations; 0 when the precheck skips it)",
            ),
            memo_hits: reg.counter(
                "sim_memo_hits_total",
                "Kernel simulations served from the pipeline's simulation memo without running",
            ),
            duration: reg.histogram(
                "sim_kernel_duration_us",
                "Wall time of one kernel simulation that ran (memo hits excluded) in microseconds",
            ),
        }
    })
}

/// Registers every simulator metric family in the global registry (at
/// zero), so an exposition lists them before the first simulation.
pub fn register_metrics() {
    metrics();
}

#[cfg(test)]
mod tests {
    use super::*;
    use distvliw_arch::{AttractionBufferConfig, LatencyClass, MachineConfig};
    use distvliw_coherence::{find_chains, transform, SchedConstraints};
    use distvliw_ir::{AddressStream, DdgBuilder, DepKind, PrefMap, Width};
    use distvliw_sched::{Heuristic, ModuloScheduler};
    use proptest::test_runner::TestRng;

    fn machine() -> MachineConfig {
        MachineConfig::paper_baseline()
    }

    fn schedule_free(kernel: &LoopKernel, m: &MachineConfig) -> Schedule {
        ModuloScheduler::new(m)
            .schedule(
                &kernel.ddg,
                &SchedConstraints::none(),
                &PrefMap::new(),
                Heuristic::MinComs,
            )
            .expect("schedulable")
    }

    /// A loop streaming one load per iteration, stride 16 (single home).
    fn streaming_kernel(trip: u64) -> LoopKernel {
        let mut b = DdgBuilder::new();
        let l = b.load(Width::W4);
        let _a = b.op(distvliw_ir::OpKind::IntAlu, &[l]);
        let g = b.finish();
        let mem = g.node(l).mem_id().unwrap();
        let mut k = LoopKernel::new("stream", g, trip);
        for img in [&mut k.profile, &mut k.exec] {
            img.insert(
                mem,
                AddressStream::Affine {
                    base: 0,
                    stride: 16,
                },
            );
        }
        k
    }

    #[test]
    fn compute_time_matches_formula() {
        let k = streaming_kernel(100);
        let m = machine();
        let s = schedule_free(&k, &m);
        let stats = simulate_kernel(&m, &k, &s, SimOptions);
        assert_eq!(stats.compute_cycles, s.compute_cycles(100));
        assert_eq!(stats.iterations, 100);
        assert_eq!(stats.accesses.total(), 100);
    }

    #[test]
    fn streaming_load_mostly_hits_after_cold_miss() {
        let k = streaming_kernel(64);
        let m = machine();
        let s = schedule_free(&k, &m);
        let stats = simulate_kernel(&m, &k, &s, SimOptions);
        use distvliw_arch::AccessClass;
        // Stride 16 within 32-byte blocks: one miss per block, one hit.
        // (All accesses are local if the op landed in cluster 0, remote
        // otherwise — either way hits+misses+combined == 64.)
        assert_eq!(stats.accesses.total(), 64);
        assert!(
            stats.accesses.get(AccessClass::LocalMiss)
                + stats.accesses.get(AccessClass::RemoteMiss)
                >= 16
        );
        assert_eq!(stats.coherence_violations, 0);
    }

    #[test]
    fn invocations_scale_stats() {
        let mut k = streaming_kernel(64);
        let m = machine();
        let s = schedule_free(&k, &m);
        let once = simulate_kernel(&m, &k, &s, SimOptions);
        k.invocations = 3;
        let thrice = simulate_kernel(&m, &k, &s, SimOptions);
        assert_eq!(thrice.total_cycles(), 3 * once.total_cycles());
        assert_eq!(thrice.accesses.total(), 3 * once.accesses.total());
    }

    #[test]
    fn every_iteration_of_the_trip_is_simulated() {
        // Two streaming loads, one missing on every iteration, on a
        // schedule that assumes local hits, so the stall grows with every
        // iteration the trip adds. Simulating part of the trip and
        // scaling it up would read one stall at 1024, 1536 and 2047.
        let mut b = DdgBuilder::new();
        let (l0, l1) = (b.load(Width::W4), b.load(Width::W4));
        let _sum = b.op(distvliw_ir::OpKind::IntAlu, &[l0, l1]);
        let g = b.finish();
        let sites = [(l0, 0x9000, 16), (l1, 0x4_0004, 32)];
        let m = machine();
        let mut last_stall = None;
        for trip in [1024, 1536, 2047, 2048] {
            let mut k = LoopKernel::new("whole", g.clone(), trip);
            for (node, base, stride) in sites {
                let mem = g.node(node).mem_id().unwrap();
                for img in [&mut k.profile, &mut k.exec] {
                    img.insert(mem, AddressStream::Affine { base, stride });
                }
            }
            let s = ModuloScheduler::new(&m)
                .with_latency_relaxation(false)
                .schedule(
                    &k.ddg,
                    &SchedConstraints::none(),
                    &PrefMap::new(),
                    Heuristic::MinComs,
                )
                .unwrap();
            let stats = simulate_kernel(&m, &k, &s, SimOptions);
            assert_eq!(stats.iterations, trip);
            assert_eq!(stats.compute_cycles, s.compute_cycles(trip));
            assert_eq!(stats.accesses.total(), trip * sites.len() as u64);
            assert!(
                last_stall < Some(stats.stall_cycles),
                "trip {trip}: stall {} after {last_stall:?}",
                stats.stall_cycles
            );
            last_stall = Some(stats.stall_cycles);
        }
    }

    /// The paper's Figure 2 scenario: a store whose home is cluster A is
    /// scheduled in a *different* cluster, and an aliased load scheduled
    /// in cluster A issues shortly after. Free scheduling reads stale
    /// data; MDC colocation fixes it.
    fn figure2_kernel(trip: u64) -> LoopKernel {
        let mut b = DdgBuilder::new();
        let v = b.op(distvliw_ir::OpKind::IntAlu, &[]);
        let st = b.store(Width::W4, &[v]);
        let ld = b.load(Width::W4);
        let _use = b.op(distvliw_ir::OpKind::IntAlu, &[ld]);
        b.dep(st, ld, DepKind::MemFlow, 0);
        b.dep(ld, st, DepKind::MemAnti, 1); // next iteration overwrites X
        let g = b.finish();
        let (ms_, ml) = (g.node(st).mem_id().unwrap(), g.node(ld).mem_id().unwrap());
        let mut k = LoopKernel::new("fig2", g, trip);
        // Both access the same word each iteration (variable X; stride 0).
        for img in [&mut k.profile, &mut k.exec] {
            img.insert(
                ms_,
                AddressStream::Affine {
                    base: 64,
                    stride: 0,
                },
            );
            img.insert(
                ml,
                AddressStream::Affine {
                    base: 64,
                    stride: 0,
                },
            );
        }
        k
    }

    #[test]
    fn free_scheduling_violates_mdc_does_not() {
        let m = machine();
        let k = figure2_kernel(128);
        // Force the paper's pathological placement: store remote to its
        // home, load local, scheduled as tightly as the MF edge allows.
        let mut constraints = SchedConstraints::none();
        let st = k.ddg.stores().next().unwrap();
        let ld = k.ddg.loads().next().unwrap();
        // Address 64 → home cluster 0 (64/4 % 4 == 0).
        constraints.pinned.insert(st, 3);
        constraints.pinned.insert(ld, 0);
        let free = ModuloScheduler::new(&m)
            .with_latency_relaxation(false)
            .schedule(&k.ddg, &constraints, &PrefMap::new(), Heuristic::MinComs)
            .unwrap();
        let stats = simulate_kernel(&m, &k, &free, SimOptions);
        assert!(
            stats.coherence_violations > 0,
            "remote store + tight local load must read stale data: {stats}"
        );

        // MDC: the chain {st, ld} shares a cluster → no violations.
        let chains = find_chains(&k.ddg);
        let mdc = SchedConstraints::for_mdc(&chains, &k.ddg, None, 4);
        let s = ModuloScheduler::new(&m)
            .schedule(&k.ddg, &mdc, &PrefMap::new(), Heuristic::MinComs)
            .unwrap();
        assert_eq!(s.op(st).cluster, s.op(ld).cluster);
        let stats = simulate_kernel(&m, &k, &s, SimOptions);
        assert_eq!(stats.coherence_violations, 0, "{stats}");
    }

    #[test]
    fn ddgt_store_replication_avoids_violations() {
        let m = machine();
        let mut k = figure2_kernel(128);
        let report = transform(&mut k.ddg, 4);
        assert_eq!(report.replica_groups.len(), 1);
        let constraints = SchedConstraints::for_ddgt(&report);
        let s = ModuloScheduler::new(&m)
            .schedule(&k.ddg, &constraints, &PrefMap::new(), Heuristic::MinComs)
            .unwrap();
        let stats = simulate_kernel(&m, &k, &s, SimOptions);
        assert_eq!(stats.coherence_violations, 0, "{stats}");
        // Exactly one instance executes per iteration: the store count
        // equals load count.
        assert_eq!(stats.accesses.total(), 2 * 128);
    }

    #[test]
    fn copies_execute_once_per_iteration() {
        let m = machine();
        let mut b = DdgBuilder::new();
        let p = b.op(distvliw_ir::OpKind::IntAlu, &[]);
        let c = b.op(distvliw_ir::OpKind::IntAlu, &[p]);
        let g = b.finish();
        let mut k = LoopKernel::new("copy", g, 50);
        let mut constraints = SchedConstraints::none();
        constraints.pinned.insert(p, 0);
        constraints.pinned.insert(c, 1);
        let s = ModuloScheduler::new(&m)
            .schedule(&k.ddg, &constraints, &PrefMap::new(), Heuristic::MinComs)
            .unwrap();
        assert_eq!(s.comm_ops(), 1);
        k.invocations = 1;
        let stats = simulate_kernel(&m, &k, &s, SimOptions);
        assert_eq!(stats.comm_ops, 50);
        assert_eq!(stats.coherence_violations, 0);
    }

    #[test]
    fn detailed_usage_is_consistent_with_aggregate_stats() {
        // Several invocations, so the per-cluster counters go through the
        // same scaling as the aggregate.
        let mut k = streaming_kernel(2048);
        k.invocations = 3;
        let m = machine();
        let s = schedule_free(&k, &m);
        let (stats, usage) = simulate_kernel_detailed(&m, &k, &s, SimOptions);
        assert_eq!(stats, simulate_kernel(&m, &k, &s, SimOptions));
        assert_eq!(stats.accesses.total(), 3 * 2048);
        assert_eq!(usage.accesses.len(), m.n_clusters);
        let split: u64 = (0..m.n_clusters).map(|c| usage.accesses_of(c)).sum();
        assert_eq!(split, stats.accesses.total());
        assert_eq!(usage.violations.total(), stats.coherence_violations);
        assert_eq!(
            usage.mem_bus_grants * u64::from(m.mem_buses.latency),
            stats.bus_busy_cycles
        );
        // One load per iteration from a single cluster: fully imbalanced.
        assert!((usage.imbalance() - m.n_clusters as f64).abs() < 1e-12);
    }

    #[test]
    fn attraction_buffers_reduce_stall_for_remote_streams() {
        // A load stream walking all clusters' words: without ABs most
        // accesses are remote; with ABs each attracted subblock serves a
        // second access locally.
        let mut b = DdgBuilder::new();
        let l = b.load(Width::W4);
        let _a = b.op(distvliw_ir::OpKind::IntAlu, &[l]);
        let g = b.finish();
        let mem = g.node(l).mem_id().unwrap();
        let mut k = LoopKernel::new("walk", g, 256);
        for img in [&mut k.profile, &mut k.exec] {
            img.insert(mem, AddressStream::Affine { base: 0, stride: 4 });
        }
        let base = machine();
        let with_ab = machine().with_attraction_buffers(AttractionBufferConfig::paper());
        let s = schedule_free(&k, &base);
        let no_ab = simulate_kernel(&base, &k, &s, SimOptions);
        let ab = simulate_kernel(&with_ab, &k, &s, SimOptions);
        assert!(
            ab.local_hit_ratio() > no_ab.local_hit_ratio(),
            "AB {} vs {}",
            ab.local_hit_ratio(),
            no_ab.local_hit_ratio()
        );
        assert!(ab.total_cycles() <= no_ab.total_cycles());
    }

    #[test]
    fn assumed_latency_affects_stall_not_compute_split() {
        // A load feeding a consumer scheduled 1 cycle later stalls for the
        // actual latency; compute time stays the schedule's.
        let k = streaming_kernel(64);
        let m = machine();
        let s = ModuloScheduler::new(&m)
            .with_latency_relaxation(false)
            .schedule(
                &k.ddg,
                &SchedConstraints::none(),
                &PrefMap::new(),
                Heuristic::MinComs,
            )
            .unwrap();
        let stats = simulate_kernel(&m, &k, &s, SimOptions);
        assert_eq!(stats.compute_cycles, s.compute_cycles(64));
        assert!(stats.stall_cycles > 0, "cold misses must stall: {stats}");
    }

    #[test]
    fn relaxed_latencies_reduce_stall() {
        let k = streaming_kernel(256);
        let m = machine();
        let tight = ModuloScheduler::new(&m)
            .with_latency_relaxation(false)
            .schedule(
                &k.ddg,
                &SchedConstraints::none(),
                &PrefMap::new(),
                Heuristic::MinComs,
            )
            .unwrap();
        let relaxed = ModuloScheduler::new(&m)
            .schedule(
                &k.ddg,
                &SchedConstraints::none(),
                &PrefMap::new(),
                Heuristic::MinComs,
            )
            .unwrap();
        let st_tight = simulate_kernel(&m, &k, &tight, SimOptions);
        let st_relaxed = simulate_kernel(&m, &k, &relaxed, SimOptions);
        assert!(
            st_relaxed.stall_cycles <= st_tight.stall_cycles,
            "relaxed {st_relaxed} vs tight {st_tight}"
        );
        // The relaxed schedule assumed a larger class for the load.
        let load = k.ddg.loads().next().unwrap();
        assert!(relaxed.op(load).assumed_class >= Some(LatencyClass::LocalHit));
    }

    /// A small stream near 0, the middle or the top of the address
    /// space, so sites share granules often and some streams wrap.
    fn tiny_stream(rng: &mut TestRng) -> AddressStream {
        let center = [48u64, 1 << 63, u64::MAX - 24][rng.below(3) as usize];
        let addr = |rng: &mut TestRng| center.wrapping_add(rng.below(64)).wrapping_sub(32);
        if rng.below(2) == 0 {
            let stride = match rng.below(4) {
                0 => 0,
                1 => rng.below(19) as i64 - 9,
                2 => (rng.below(5) as i64 - 2) << 61, // wraps at once
                _ => rng.below(33) as i64 - 16,
            };
            AddressStream::Affine {
                base: addr(rng),
                stride,
            }
        } else {
            let len = 1 + rng.below(7) as usize;
            AddressStream::Indexed((0..len).map(|_| addr(rng)).collect::<Vec<_>>().into())
        }
    }

    /// Memory node `kind` of `width` bytes at `stream`: 0 is a load, 1 a
    /// store and 2 a gated DDGT store.
    fn site(stream: &AddressStream, width: u64, kind: u64) -> ExecKind<'_> {
        match kind {
            0 => ExecKind::Load { stream, width },
            _ => ExecKind::Store {
                stream,
                width,
                gated: kind == 2,
            },
        }
    }

    #[test]
    fn precheck_never_skips_a_violation() {
        let mut rng = TestRng::for_test("precheck_never_skips_a_violation");
        let (mut skipped, mut caught) = (0, 0);
        for case in 0..4_000 {
            let streams: Vec<AddressStream> = (0..2 + rng.below(3))
                .map(|_| tiny_stream(&mut rng))
                .collect();
            let exec: Vec<ExecKind<'_>> = streams
                .iter()
                .map(|stream| site(stream, 1 + rng.below(8), rng.below(3)))
                .collect();
            let cluster: Vec<usize> = exec.iter().map(|_| rng.below(4) as usize).collect();
            let iters = 1 + rng.below(24);

            // Every access of every site, recorded in a random order
            // that is also its home-module time.
            let sites = exec.len() as u64;
            let mut order: Vec<u64> = (0..iters * sites).collect();
            for i in (1..order.len()).rev() {
                order.swap(i, rng.below(i as u64 + 1) as usize);
            }
            let mut d = ViolationDetector::new();
            for (time, &po) in order.iter().enumerate() {
                let (i, site) = (po / sites, (po % sites) as usize);
                match exec[site] {
                    ExecKind::Load { stream, width } => {
                        d.record_load(stream.addr_at(i), width, po, time as u64, cluster[site]);
                    }
                    ExecKind::Store {
                        stream,
                        width,
                        gated,
                    } => {
                        // A gated store commits in its address's home
                        // cluster, which may be any.
                        let c = if gated {
                            rng.below(4) as usize
                        } else {
                            cluster[site]
                        };
                        d.record_store(stream.addr_at(i), width, po, time as u64, c);
                    }
                    ExecKind::Alu { .. } => unreachable!("sites are memory nodes"),
                }
            }

            if hazard_possible(&exec, &cluster, iters) {
                caught += usize::from(d.violations() > 0);
            } else {
                assert_eq!(
                    d.violations(),
                    0,
                    "case {case}: {exec:?} on clusters {cluster:?}, {iters} iterations"
                );
                skipped += 1;
            }
        }
        // Both answers occur often, so neither side is vacuous.
        assert!(skipped > 2_000 && caught > 500, "{skipped} {caught}");
    }

    #[test]
    fn precheck_sees_neighbours_inside_one_granule() {
        // A 1-byte store at 2k and a 1-byte load at 2k + 1 touch no common
        // byte but share granule k, where the detector sees them race.
        let at = |base| AddressStream::Affine { base, stride: 0 };
        let (st, ld) = (at(64), at(65));
        let exec = [site(&st, 1, 1), site(&ld, 1, 0)];
        let mut d = ViolationDetector::new();
        d.record_store(64, 1, 1, 20, 0);
        d.record_load(65, 1, 2, 12, 1);
        assert_eq!(d.violations(), 1);
        assert!(hazard_possible(&exec, &[0, 1], 1));
        // On one cluster the pair is serialized, so there is no hazard.
        assert!(!hazard_possible(&exec, &[2, 2], 1));
    }
}
