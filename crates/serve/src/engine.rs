//! The resident experiment engine: cached, deduplicated, sharded cell
//! execution.
//!
//! One *cell* is a [`Cell`]: a `(suite, machine, solution, heuristic)`
//! combination, computed by one `Pipeline::run_fingerprinted_suite` call
//! that runs the suite's kernels serially, handing the pipeline the
//! suite fingerprint the cell's key carries so that its shared memo
//! compiles each kernel's front end, searches each scheduling problem
//! and runs each simulation once per engine. The engine memoizes cells
//! in a content-addressed [`ResultCache`] and collapses concurrent identical
//! requests through [`SingleFlight`]. A request looks up all of its
//! cells under one cache lock, so hits resolve inline on the calling
//! thread; only the misses fan out, over the resident pool of
//! [`distvliw_core::par`] — the one fan-out a request makes. A miss runs
//! as an owned pool job, so the state it touches (cache, flight,
//! pipeline memo, persistence, counters) lives behind one `Arc` inside
//! the engine. Every figure endpoint runs the cell list its experiment
//! defines in `distvliw_core::experiments`, so results are shared
//! *between* endpoints too (Figure 6 and Figure 7 reuse each other's
//! MDC/DDGT-PrefClus runs).

use std::convert::Infallible;
use std::io;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use distvliw_arch::MachineConfig;
use distvliw_core::cache::{resolve_miss, CacheStats, ResultCache, SingleFlight};
use distvliw_core::cachekey::{cell_key_from_encoded, digest_fingerprint, suite_digest, CacheKey};
use distvliw_core::experiments::Cell;
use distvliw_core::{
    par, Heuristic, Pipeline, PipelineError, PipelineMemo, PipelineOptions, Solution,
};
use distvliw_ir::Suite;
use distvliw_sim::ClusterUsage;

use crate::persist::{self, CellLog, CellWrite};

/// A computed cell, shared between the cache and concurrent requesters.
pub type CellResult = Arc<Result<distvliw_core::SuiteStats, PipelineError>>;

/// Persistence counters, as served by `/stats` and `servecli state`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PersistStats {
    /// Cell results restored into the cache at boot (after last-wins
    /// dedup).
    pub loaded_cells: u64,
    /// Persisted records thrown away at boot: stale-era records, frames
    /// behind a corrupt one, and checksum-valid records whose payload
    /// failed to decode.
    pub discarded_records: u64,
    /// Bytes truncated at boot (torn/corrupt tails, stale stores).
    pub discarded_bytes: u64,
    /// Stores rejected wholesale for a stale era fingerprint (0–1).
    pub stale_stores: u64,
    /// Records appended to the cell log since boot (tombstones
    /// included).
    pub appended_records: u64,
    /// Atomic compact-and-rewrite passes of the cell log since boot.
    pub compactions: u64,
    /// Explicit flushes (periodic and shutdown) since boot.
    pub flushes: u64,
    /// Persistence writes that failed with an I/O error (serving
    /// continues; the warm state just stops growing).
    pub write_errors: u64,
}

/// The open cell log plus its counters, behind one lock. Lock
/// ordering: the cache lock is always taken **before** this one.
struct PersistState {
    cells: CellLog<CellResult>,
    stats: PersistStats,
}

impl PersistState {
    /// Rewrites the cell log to the cache's LRU-ordered live set.
    fn compact_cells(&mut self, cache: &ResultCache<CellResult>) {
        if self.cells.rewrite(cache).is_err() {
            self.stats.write_errors += 1;
        } else {
            self.stats.compactions += 1;
        }
    }
}

/// Aggregate engine counters, as served by `/stats`.
#[derive(Debug, Clone)]
pub struct EngineStats {
    /// Cache counters.
    pub cache: CacheStats,
    /// Resident cache entries.
    pub cache_entries: usize,
    /// Configured cache capacity.
    pub cache_capacity: usize,
    /// Cells actually computed by the pipeline (cache misses that led
    /// the flight).
    pub computed_cells: u64,
    /// Requests served by piggybacking on an identical in-flight
    /// computation.
    pub deduped_requests: u64,
    /// Per-cluster usage aggregated over every computed cell.
    pub cluster: ClusterUsage,
    /// Kernels of computed cells reported as a search seeded above the
    /// MII: schedule memo hits whose stored II is more than the seed
    /// slack above it.
    pub seeded_kernels: u64,
    /// Persistence counters, when the engine runs with a state dir.
    pub persist: Option<PersistStats>,
    /// Milliseconds since the engine was created.
    pub uptime_ms: u64,
}

/// The long-running engine behind the HTTP service.
pub struct ServeEngine {
    machine: MachineConfig,
    suites: Vec<Arc<Suite>>,
    /// Content fingerprint of each entry of `suites`, precomputed so
    /// key derivation on the hot (cached) path never re-walks a graph
    /// or re-hashes a ~100 KB digest.
    fingerprints: Vec<[u8; 16]>,
    figure_names: Vec<String>,
    cells: Arc<CellStore>,
    started: Instant,
}

/// Everything a cell computation touches, behind one `Arc` so the
/// engine can hand its misses to the resident pool as owned jobs.
struct CellStore {
    options: PipelineOptions,
    cache: Mutex<ResultCache<CellResult>>,
    flight: SingleFlight<Result<CellResult, Infallible>>,
    /// One shared memo for every pipeline this engine spawns, so each
    /// kernel's front end is compiled once, each distinct scheduling
    /// problem is searched once and each distinct simulation runs once
    /// per engine, whichever cell, endpoint or machine variant needs it.
    /// It lives in memory only.
    memo: Arc<PipelineMemo>,
    persist: Option<Mutex<PersistState>>,
    usage: Mutex<ClusterUsage>,
    computed: AtomicU64,
    deduped: AtomicU64,
    seeded: AtomicU64,
}

/// One distinct suite of a [`ServeEngine::run_cells`] batch.
struct BatchSuite<'a> {
    suite: &'a Suite,
    fingerprint: [u8; 16],
    /// The copy pool jobs share: the engine's own for a bundled suite,
    /// made on the first miss for a foreign one.
    owned: Option<Arc<Suite>>,
}

/// A cache miss as a pool job owns it.
#[derive(Clone)]
struct Miss {
    key: CacheKey,
    suite: Arc<Suite>,
    /// The suite's content fingerprint, as `key` carries it.
    fingerprint: [u8; 16],
    machine: MachineConfig,
    solution: Solution,
    heuristic: Heuristic,
}

impl ServeEngine {
    /// An engine for `machine` with the given cell-cache capacity.
    ///
    /// # Panics
    ///
    /// Panics if `machine` is invalid or `cache_capacity` is zero.
    #[must_use]
    pub fn new(machine: MachineConfig, cache_capacity: usize) -> Self {
        machine.validate().expect("valid machine configuration");
        // The bundled recorded traces are addressable like any other
        // suite (in `/matrix` bodies and the `/sweep` grid).
        let suites: Vec<Arc<Suite>> = distvliw_mediabench::BENCHMARKS
            .iter()
            .map(distvliw_mediabench::build_suite)
            .chain(distvliw_mediabench::trace_suites())
            .map(Arc::new)
            .collect();
        let figure_names = distvliw_mediabench::FIGURE_BENCHMARKS
            .iter()
            .map(|s| (*s).to_string())
            .collect();
        let fingerprints = suites
            .iter()
            .map(|s| digest_fingerprint(&suite_digest(s)))
            .collect();
        ServeEngine {
            machine,
            suites,
            fingerprints,
            figure_names,
            cells: Arc::new(CellStore {
                options: PipelineOptions::default(),
                cache: Mutex::new(ResultCache::new(cache_capacity)),
                flight: SingleFlight::new(),
                memo: Arc::new(PipelineMemo::new()),
                persist: None,
                usage: Mutex::new(ClusterUsage::default()),
                computed: AtomicU64::new(0),
                deduped: AtomicU64::new(0),
                seeded: AtomicU64::new(0),
            }),
            started: Instant::now(),
        }
    }

    /// The cell store, while the engine is still being configured.
    fn configure(&mut self) -> &mut CellStore {
        Arc::get_mut(&mut self.cells).expect("an engine is configured before it serves")
    }

    /// Runs the independent static checker (`distvliw-check`) on every
    /// schedule this engine compiles, failing the cell instead of
    /// serving an illegal schedule (`serve --check`; see
    /// docs/checking.md). Debug builds always check.
    #[must_use]
    pub fn with_check(mut self, check: bool) -> Self {
        self.configure().options.check = check;
        self
    }

    /// Attaches durable state under `dir` (created if missing): the
    /// cell cache replays `cells.log` (a tombstone drops its key), and
    /// the log is kept current as the engine runs (see [`CellLog`] for
    /// its appends and amortized compaction; fsync on flush). The
    /// pipeline memo of front ends, schedules and simulations lives in
    /// memory only: after a restart a cell miss compiles, searches and
    /// simulates cold. A corrupt or stale log is recovered, never
    /// fatal — see [`PersistStats`] for what was kept.
    ///
    /// # Errors
    ///
    /// Propagates I/O failures creating or opening the log (not
    /// corruption, which is healed in place).
    pub fn with_state_dir(mut self, dir: &Path) -> io::Result<Self> {
        std::fs::create_dir_all(dir)?;
        let store = self.configure();
        let cache = store.cache.get_mut().expect("cache lock");
        // Replay cells in file order (LRU-first snapshot, then appends
        // and tombstones): `preload` keeps the boot invisible to the
        // traffic counters.
        let (cells, report, undecodable) = CellLog::open(
            dir.join("cells.log"),
            &persist::era_bytes(),
            cache,
            |bytes| persist::suite_stats_from_bytes(bytes).map(|suite| Arc::new(Ok(suite))),
            encode_cell,
        )?;
        let mut state = PersistState {
            cells,
            stats: PersistStats {
                discarded_records: report.discarded_records + undecodable,
                discarded_bytes: report.discarded_bytes,
                stale_stores: u64::from(report.stale),
                loaded_cells: cache.len() as u64,
                ..PersistStats::default()
            },
        };
        // Checksum-valid but undecodable: a payload this era's codec
        // never wrote. Replay dropped it; heal the log now.
        if undecodable > 0 {
            state.compact_cells(cache);
        }
        store.persist = Some(Mutex::new(state));
        Ok(self)
    }

    /// The machine endpoint cells default to.
    #[must_use]
    pub fn machine(&self) -> &MachineConfig {
        &self.machine
    }

    /// The bundled suite named `name`, if any.
    #[must_use]
    pub fn suite(&self, name: &str) -> Option<&Suite> {
        self.suites
            .iter()
            .find(|s| s.name == name)
            .map(|s| s.as_ref())
    }

    /// The thirteen figure suites, in the paper's order.
    pub fn figure_suites(&self) -> impl Iterator<Item = &Suite> {
        self.figure_names.iter().filter_map(|name| self.suite(name))
    }

    /// The cache key of every cell of a batch, with the batch's
    /// distinct suites and each cell's index into them.
    fn batch_keys<'a>(
        &self,
        cells: &[Cell<'a>],
    ) -> (Vec<BatchSuite<'a>>, Vec<usize>, Vec<CacheKey>) {
        // Each distinct suite's fingerprint, once per batch: a bundled
        // suite's was precomputed, and a foreign suite (e.g.
        // re-interleaved for a /matrix override) digests on the spot.
        let mut distinct: Vec<BatchSuite<'_>> = Vec::new();
        let mut suite_of = Vec::with_capacity(cells.len());
        for cell in cells {
            let d = distinct
                .iter()
                .position(|d| std::ptr::eq(d.suite, cell.suite))
                .unwrap_or_else(|| {
                    let bundled = self
                        .suites
                        .iter()
                        .position(|s| std::ptr::eq(s.as_ref(), cell.suite));
                    let fingerprint = bundled.map_or_else(
                        || digest_fingerprint(&suite_digest(cell.suite)),
                        |i| self.fingerprints[i],
                    );
                    distinct.push(BatchSuite {
                        suite: cell.suite,
                        fingerprint,
                        owned: bundled.map(|i| self.suites[i].clone()),
                    });
                    distinct.len() - 1
                });
            suite_of.push(d);
        }
        // Each distinct machine's encoding, once per batch: a figure's
        // cells share one machine, a sweep's a handful.
        let mut machines: Vec<(&MachineConfig, Vec<u8>)> = Vec::new();
        let keys: Vec<CacheKey> = cells
            .iter()
            .zip(&suite_of)
            .map(|(cell, &d)| {
                let m = machines
                    .iter()
                    .position(|(m, _)| std::ptr::eq(*m, cell.machine))
                    .unwrap_or_else(|| {
                        machines.push((cell.machine, cell.machine.canonical_bytes()));
                        machines.len() - 1
                    });
                cell_key_from_encoded(
                    &distinct[d].fingerprint,
                    &machines[m].1,
                    &self.cells.options,
                    cell.solution,
                    cell.heuristic,
                )
            })
            .collect();
        (distinct, suite_of, keys)
    }

    /// Runs a batch of cells through cache → single-flight → pipeline
    /// (results in input order). Every key is looked up under one cache
    /// lock, so hits resolve inline; only the misses fan out over the
    /// resident pool (`DISTVLIW_THREADS` caps the width), and a batch
    /// with at most one miss never leaves the calling thread. Each miss
    /// runs its suite's kernels serially, and identical cells — within
    /// this batch or across concurrent requests — are computed once.
    #[must_use]
    pub fn run_cells(&self, cells: &[Cell<'_>]) -> Vec<CellResult> {
        let (mut distinct, suite_of, keys) = self.batch_keys(cells);
        let mut found: Vec<Option<CellResult>> = {
            let mut span = distvliw_obs::Span::enter("cache_lookup");
            let mut cache = self.cells.cache.lock().expect("cache lock");
            let found: Vec<_> = keys.iter().map(|key| cache.get(key)).collect();
            drop(cache);
            let misses = found.iter().filter(|v| v.is_none()).count();
            span.field_u64("cells", cells.len() as u64);
            span.field_u64("misses", misses as u64);
            span.field_str("outcome", if misses == 0 { "hit" } else { "miss" });
            found
        };

        let missed: Vec<usize> = (0..cells.len()).filter(|&i| found[i].is_none()).collect();
        if !missed.is_empty() {
            let misses: Vec<Miss> = missed
                .iter()
                .map(|&i| {
                    let cell = &cells[i];
                    let batch = &mut distinct[suite_of[i]];
                    let suite = batch
                        .owned
                        .get_or_insert_with(|| Arc::new(cell.suite.clone()));
                    Miss {
                        key: keys[i].clone(),
                        suite: suite.clone(),
                        fingerprint: batch.fingerprint,
                        machine: cell.machine.clone(),
                        solution: cell.solution,
                        heuristic: cell.heuristic,
                    }
                })
                .collect();
            let store = self.cells.clone();
            let computed = par::par_map(&misses, move |miss| store.compute(miss));
            for (i, value) in missed.into_iter().zip(computed) {
                found[i] = Some(value);
            }
        }
        found
            .into_iter()
            .map(|value| value.expect("every cell resolved"))
            .collect()
    }

    /// Flushes the durable state: fsyncs the cell log, or with
    /// `compact` rewrites it to the current LRU-ordered live set
    /// instead, capturing recency drift from cache hits since the last
    /// eviction — used on clean shutdown. No-op without a state dir;
    /// write failures are counted, not fatal.
    pub fn flush_state(&self, compact: bool) {
        let Some(persist) = &self.cells.persist else {
            return;
        };
        let cache = self.cells.cache.lock().expect("cache lock");
        let mut p = persist.lock().expect("persist lock");
        if compact {
            p.compact_cells(&cache);
        } else if p.cells.sync().is_err() {
            p.stats.write_errors += 1;
        }
        p.stats.flushes += 1;
    }

    /// A snapshot of the engine counters.
    ///
    /// # Panics
    ///
    /// Panics if an internal lock is poisoned.
    #[must_use]
    pub fn stats(&self) -> EngineStats {
        let store = &self.cells;
        let cache = store.cache.lock().expect("cache lock");
        EngineStats {
            cache: cache.stats(),
            cache_entries: cache.len(),
            cache_capacity: cache.capacity(),
            computed_cells: store.computed.load(Ordering::Relaxed),
            deduped_requests: store.deduped.load(Ordering::Relaxed),
            cluster: store.usage.lock().expect("usage lock").clone(),
            seeded_kernels: store.seeded.load(Ordering::Relaxed),
            persist: store
                .persist
                .as_ref()
                .map(|p| p.lock().expect("persist lock").stats),
            uptime_ms: self.started.elapsed().as_millis() as u64,
        }
    }
}

impl CellStore {
    /// Resolves one cache miss through single-flight → pipeline. The
    /// cache lookup that missed was already counted.
    fn compute(&self, miss: &Miss) -> CellResult {
        let flight_start = Instant::now();
        let run = || {
            let pipeline = Pipeline::new(miss.machine.clone())
                .with_options(self.options)
                .with_memo(self.memo.clone());
            let result: CellResult = Arc::new(pipeline.run_fingerprinted_suite(
                &miss.suite,
                &miss.fingerprint,
                miss.solution,
                miss.heuristic,
            ));
            if let Ok(stats) = result.as_ref() {
                *self.usage.lock().expect("usage lock") += &stats.cluster;
                self.seeded
                    .fetch_add(stats.sched.seeded_kernels, Ordering::Relaxed);
            }
            self.computed.fetch_add(1, Ordering::Relaxed);
            Ok(result)
        };
        // Insert, then mirror the insertion into the cell log under the
        // cache lock (cache → persist ordering), so the log follows
        // insertion order exactly: a tombstone for the evicted victim and
        // the cell's record, or an atomic rewrite to the LRU-ordered live
        // set once the appends since the last one would exceed the cache
        // capacity ([`CellLog::record_insert`]). Only `Ok` cells persist;
        // write failures are counted, not fatal.
        let publish = |cache: &mut ResultCache<CellResult>, result: &CellResult| {
            let _span = distvliw_obs::Span::enter("persist");
            let evicted = cache.insert(miss.key.clone(), result.clone());
            let Some(persist) = &self.persist else { return };
            let mut p = persist.lock().expect("persist lock");
            match p
                .cells
                .record_insert(cache, &miss.key, result, evicted.as_ref())
            {
                Ok(CellWrite::Appended(n)) => p.stats.appended_records += n,
                Ok(CellWrite::Rewrote) => p.stats.compactions += 1,
                Err(_) => p.stats.write_errors += 1,
            }
        };
        let (Ok(value), leader) = resolve_miss(&self.cache, &self.flight, &miss.key, run, publish);
        if !leader {
            self.deduped.fetch_add(1, Ordering::Relaxed);
            // The wait is only known retroactively: the span covers the
            // time this request was blocked on the leader's computation.
            distvliw_obs::trace::record(
                "flight_wait",
                flight_start,
                flight_start.elapsed(),
                Vec::new(),
            );
        }
        value
    }
}

/// A cell's cell-log record value: `Ok` cells encode, `Err` cells are
/// never persisted.
fn encode_cell(value: &CellResult) -> Option<Vec<u8>> {
    value.as_ref().as_ref().ok().map(persist::suite_stats_bytes)
}

/// Applies JSON machine overrides (see `docs/serving.md`) on top of
/// `base` and validates the result.
///
/// # Errors
///
/// Returns a message naming the offending field.
pub fn machine_with_overrides(
    base: &MachineConfig,
    overrides: &crate::json::Json,
) -> Result<MachineConfig, String> {
    use crate::json::Json;
    let mut machine = base.clone();
    let as_usize = |v: &Json, what: &str| -> Result<usize, String> {
        v.as_u64()
            .map(|n| n as usize)
            .ok_or_else(|| format!("{what} must be a non-negative integer"))
    };
    let as_u64 = |v: &Json, what: &str| -> Result<u64, String> {
        v.as_u64()
            .ok_or_else(|| format!("{what} must be a non-negative integer"))
    };
    let as_u32 = |v: &Json, what: &str| -> Result<u32, String> {
        v.as_u64()
            .and_then(|n| u32::try_from(n).ok())
            .ok_or_else(|| format!("{what} must be a 32-bit non-negative integer"))
    };
    if let Some(v) = overrides.get("n_clusters") {
        machine.n_clusters = as_usize(v, "n_clusters")?;
    }
    if let Some(v) = overrides.get("interleave_bytes") {
        machine.interleave_bytes = as_u64(v, "interleave_bytes")?;
    }
    if let Some(v) = overrides.get("cache") {
        if let Some(x) = v.get("total_bytes") {
            machine.cache.total_bytes = as_u64(x, "cache.total_bytes")?;
        }
        if let Some(x) = v.get("block_bytes") {
            machine.cache.block_bytes = as_u64(x, "cache.block_bytes")?;
        }
        if let Some(x) = v.get("assoc") {
            machine.cache.assoc = as_usize(x, "cache.assoc")?;
        }
        if let Some(x) = v.get("latency") {
            machine.cache.latency = as_u32(x, "cache.latency")?;
        }
    }
    for (field, buses) in [
        ("reg_buses", &mut machine.reg_buses),
        ("mem_buses", &mut machine.mem_buses),
    ] {
        if let Some(v) = overrides.get(field) {
            if let Some(x) = v.get("count") {
                buses.count = as_usize(x, field)?;
            }
            if let Some(x) = v.get("latency") {
                buses.latency = as_u32(x, field)?;
            }
        }
    }
    if let Some(v) = overrides.get("next_level") {
        if let Some(x) = v.get("ports") {
            machine.next_level.ports = as_usize(x, "next_level.ports")?;
        }
        if let Some(x) = v.get("latency") {
            machine.next_level.latency = as_u32(x, "next_level.latency")?;
        }
    }
    if let Some(v) = overrides.get("attraction_buffers") {
        machine.attraction_buffers = match v {
            Json::Null => None,
            v if !matches!(v, Json::Obj(_)) => {
                return Err(
                    "attraction_buffers must be an object {entries, assoc} or null".to_string(),
                );
            }
            v => Some(distvliw_arch::AttractionBufferConfig {
                entries: v
                    .get("entries")
                    .map(|x| as_usize(x, "attraction_buffers.entries"))
                    .transpose()?
                    .unwrap_or(16),
                assoc: v
                    .get("assoc")
                    .map(|x| as_usize(x, "attraction_buffers.assoc"))
                    .transpose()?
                    .unwrap_or(2),
            }),
        };
    }
    machine
        .validate()
        .map_err(|e| format!("invalid machine: {e}"))?;
    Ok(machine)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json;

    fn engine() -> ServeEngine {
        ServeEngine::new(MachineConfig::paper_baseline(), 64)
    }

    /// One cell through the batch executor.
    fn run(engine: &ServeEngine, cell: Cell<'_>) -> CellResult {
        engine.run_cells(&[cell]).remove(0)
    }

    #[test]
    fn identical_cells_hit_the_cache() {
        let engine = engine();
        let suite = engine.suite("gsmdec").unwrap();
        let spec = Cell {
            suite,
            machine: engine.machine(),
            solution: Solution::Mdc,
            heuristic: Heuristic::PrefClus,
        };
        let cold = run(&engine, spec);
        let s = engine.stats();
        assert_eq!(s.computed_cells, 1);
        assert_eq!(s.cache.hits, 0);
        assert_eq!(s.cache.misses, 1, "one lookup outcome per request");
        let warm = run(&engine, spec);
        let s = engine.stats();
        assert_eq!(s.computed_cells, 1, "second run must not recompute");
        assert_eq!(s.cache.hits, 1);
        assert!(Arc::ptr_eq(&cold, &warm), "same cached value");
        // Computed usage is the cell's own per-cluster usage.
        let stats = cold.as_ref().as_ref().unwrap();
        assert_eq!(s.cluster, stats.cluster);
    }

    #[test]
    fn batch_keys_equal_cell_key_on_a_mixed_machine_grid() {
        let engine = engine();
        let m2 = engine.machine().clone().with_interleave(2);
        let m3 = engine.machine().clone().with_interleave(2); // equal to m2, another address
        let foreign = engine.suite("gsmdec").unwrap().clone();
        let suites = [
            engine.suite("gsmdec").unwrap(),
            engine.suite("rasta").unwrap(),
            &foreign,
        ];
        let mut cells = Vec::new();
        for machine in [engine.machine(), &m2, engine.machine(), &m3] {
            for suite in suites {
                for solution in [Solution::Mdc, Solution::Ddgt] {
                    cells.push(Cell {
                        suite,
                        machine,
                        solution,
                        heuristic: Heuristic::MinComs,
                    });
                }
            }
        }
        let (_, _, keys) = engine.batch_keys(&cells);
        let want: Vec<CacheKey> = cells
            .iter()
            .map(|c| {
                distvliw_core::cachekey::cell_key(
                    c.suite,
                    c.machine,
                    &PipelineOptions::default(),
                    c.solution,
                    c.heuristic,
                )
            })
            .collect();
        assert_eq!(keys, want);
    }

    #[test]
    fn any_perturbation_misses() {
        let engine = engine();
        let suite = engine.suite("gsmdec").unwrap();
        let base = Cell {
            suite,
            machine: engine.machine(),
            solution: Solution::Mdc,
            heuristic: Heuristic::PrefClus,
        };
        run(&engine, base);
        // Different heuristic, solution, machine and suite each compute
        // a fresh cell.
        let m2 = engine.machine().clone().with_interleave(2);
        let other_suite = engine.suite("jpegenc").unwrap();
        let variants = [
            Cell {
                heuristic: Heuristic::MinComs,
                ..base
            },
            Cell {
                solution: Solution::Ddgt,
                ..base
            },
            Cell {
                machine: &m2,
                ..base
            },
            Cell {
                suite: other_suite,
                ..base
            },
        ];
        for (i, spec) in variants.iter().enumerate() {
            run(&engine, *spec);
            assert_eq!(
                engine.stats().computed_cells,
                i as u64 + 2,
                "variant {i} must compute"
            );
        }
        assert_eq!(engine.stats().cache.hits, 0);
    }

    #[test]
    fn a_cell_listed_twice_in_one_batch_computes_once() {
        let engine = engine();
        let spec = Cell {
            suite: engine.suite("gsmdec").unwrap(),
            machine: engine.machine(),
            solution: Solution::Mdc,
            heuristic: Heuristic::PrefClus,
        };
        // Both copies miss the one lookup pass; the second then resolves
        // through the single flight (or the entry the first published).
        let out = engine.run_cells(&[spec, spec]);
        assert!(Arc::ptr_eq(&out[0], &out[1]));
        let s = engine.stats();
        assert_eq!((s.cache.hits, s.cache.misses, s.computed_cells), (0, 2, 1));
    }

    #[test]
    fn concurrent_identical_requests_compute_once() {
        let engine = engine();
        let suite = engine.suite("epicdec").unwrap();
        std::thread::scope(|scope| {
            for _ in 0..6 {
                scope.spawn(|| {
                    let spec = Cell {
                        suite,
                        machine: engine.machine(),
                        solution: Solution::Ddgt,
                        heuristic: Heuristic::PrefClus,
                    };
                    let result = run(&engine, spec);
                    assert!(result.is_ok());
                });
            }
        });
        let s = engine.stats();
        assert_eq!(s.computed_cells, 1, "single-flight must collapse the storm");
        assert_eq!(
            s.cache.hits + s.deduped_requests,
            5,
            "five requests piggybacked (via cache or flight)"
        );
    }

    #[test]
    fn cached_cells_match_a_direct_pipeline_run() {
        let engine = engine();
        let suite = engine.suite("g721dec").unwrap();
        let spec = Cell {
            suite,
            machine: engine.machine(),
            solution: Solution::Ddgt,
            heuristic: Heuristic::MinComs,
        };
        run(&engine, spec); // cold
        let warm = run(&engine, spec); // from cache
        let direct = Pipeline::new(engine.machine().clone())
            .run_suite(suite, Solution::Ddgt, Heuristic::MinComs)
            .unwrap();
        let warm = warm.as_ref().as_ref().unwrap();
        assert_eq!(warm.total_cycles(), direct.total_cycles());
        assert_eq!(warm.total, direct.total);
        assert_eq!(warm.cluster, direct.cluster);
    }

    #[test]
    fn override_suites_key_like_a_full_digest() {
        // A 4-combo /matrix body whose interleave override re-interleaves
        // the suite: its cells key by each foreign suite's digest,
        // resolved once per batch, exactly as a per-cell digest keys
        // them, and the body is the one served before.
        let engine = engine();
        let body = r#"{"suites":["gsmdec"],"solutions":["mdc","ddgt"],
            "heuristics":["prefclus","mincoms"],"machine":{"interleave_bytes":2}}"#;
        let request = crate::http::Request {
            method: "POST".to_string(),
            path: "/matrix".to_string(),
            query: String::new(),
            minor: 1,
            headers: Vec::new(),
            body: body.as_bytes().to_vec(),
        };
        let resp = crate::endpoints::handle(&engine, &request);
        assert_eq!(resp.status, 200);
        assert_eq!(
            distvliw_core::cachekey::fnv1a64(&resp.body),
            0x924f_e7b7_8dad_5d69,
            "served bytes moved"
        );

        let mut suite = engine.suite("gsmdec").unwrap().clone();
        suite.interleave_bytes = 2;
        let machine = engine.machine().clone().with_interleave(2);
        let mut want: Vec<CacheKey> = [Solution::Mdc, Solution::Ddgt]
            .into_iter()
            .flat_map(|solution| {
                [Heuristic::PrefClus, Heuristic::MinComs].map(|heuristic| {
                    distvliw_core::cachekey::cell_key(
                        &suite,
                        &machine,
                        &PipelineOptions::default(),
                        solution,
                        heuristic,
                    )
                })
            })
            .collect();
        let cache = engine.cells.cache.lock().unwrap();
        let mut keys: Vec<CacheKey> = cache
            .entries_by_recency()
            .into_iter()
            .map(|(key, _)| key)
            .collect();
        keys.sort_by(|a, b| a.bytes().cmp(b.bytes()));
        want.sort_by(|a, b| a.bytes().cmp(b.bytes()));
        assert_eq!(keys, want);
    }

    #[test]
    fn machine_overrides_apply_and_validate() {
        let base = MachineConfig::paper_baseline();
        let body = json::parse(
            r#"{"interleave_bytes": 2,
                "reg_buses": {"count": 2, "latency": 4},
                "attraction_buffers": {"entries": 32}}"#,
        )
        .unwrap();
        let m = machine_with_overrides(&base, &body).unwrap();
        assert_eq!(m.interleave_bytes, 2);
        assert_eq!(m.reg_buses.count, 2);
        assert_eq!(m.reg_buses.latency, 4);
        assert_eq!(m.attraction_buffers.unwrap().entries, 32);
        assert_eq!(m.attraction_buffers.unwrap().assoc, 2);

        // Null strips the buffers.
        let none = json::parse(r#"{"attraction_buffers": null}"#).unwrap();
        let m = machine_with_overrides(
            &base
                .clone()
                .with_attraction_buffers(distvliw_arch::AttractionBufferConfig::paper()),
            &none,
        )
        .unwrap();
        assert_eq!(m.attraction_buffers, None);

        // Invalid geometry is rejected, not run.
        let bad = json::parse(r#"{"interleave_bytes": 16}"#).unwrap();
        assert!(machine_with_overrides(&base, &bad).is_err());
        let bad = json::parse(r#"{"n_clusters": "four"}"#).unwrap();
        assert!(machine_with_overrides(&base, &bad).is_err());
        // `false` must not silently *enable* default buffers.
        let bad = json::parse(r#"{"attraction_buffers": false}"#).unwrap();
        assert!(machine_with_overrides(&base, &bad).is_err());
    }
}
