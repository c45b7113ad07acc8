//! Drivers that regenerate every table and figure of the paper's
//! evaluation (Sections 4–6). Each driver returns typed rows; the
//! [`crate::report`] module renders them as text tables.
//!
//! Every grid experiment is defined once, here: an ordered list of
//! [`Cell`]s ([`per_suite_cells`] over a `*_CELLS` list, or
//! [`sweep_cells`]) and a row fold over the cell results in that order
//! (`*_rows`). The direct functions run the cells through the one
//! direct executor, [`run_direct`], which compiles each distinct
//! schedule once; the serving layer runs them through its result cache,
//! with the same fold. Either way the fan-out is over cells (or compile
//! units), and one suite's kernels run serially.

use std::collections::{HashMap, HashSet};
use std::sync::Arc;

use distvliw_arch::{AccessClass, AttractionBufferConfig, BusConfig, MachineConfig};
use distvliw_coherence::{chain_stats, specialize_kernel, ChainStats};
use distvliw_ir::Suite;
use distvliw_mediabench::{figure_suites, suite, trace_suites};
use distvliw_sched::Heuristic;
use distvliw_sim::ClusterUsage;

use crate::cachekey::{digest_fingerprint, suite_digest};
use crate::par;
use crate::pipeline::{Pipeline, PipelineError, Solution, SuiteStats};

/// One cell of an experiment grid: one suite run under one solution and
/// heuristic on one machine.
#[derive(Debug, Clone, Copy)]
pub struct Cell<'a> {
    /// The benchmark suite to run.
    pub suite: &'a Suite,
    /// The machine to run it on (the pipeline applies the suite's
    /// interleave on top).
    pub machine: &'a MachineConfig,
    /// Coherence solution.
    pub solution: Solution,
    /// Cluster-assignment heuristic.
    pub heuristic: Heuristic,
}

/// The cells of a per-suite experiment: `combos` ([`PREFCLUS_CELLS`],
/// [`EXEC_CELLS`] or [`NOBAL_CELLS`]) for every suite, suite-major — the
/// layout its fold reads one chunk of `combos.len()` results from.
#[must_use]
pub fn per_suite_cells<'a>(
    machine: &'a MachineConfig,
    suites: &[&'a Suite],
    combos: &[(Solution, Heuristic)],
) -> Vec<Cell<'a>> {
    suites
        .iter()
        .flat_map(|&suite| {
            combos.iter().map(move |&(solution, heuristic)| Cell {
                suite,
                machine,
                solution,
                heuristic,
            })
        })
        .collect()
}

/// Folds [`per_suite_cells`] results into one row per suite: `row`
/// receives the suite name and that suite's `width` results in combo
/// order.
pub fn per_suite_rows<R>(
    cells: &[Cell<'_>],
    stats: &[&SuiteStats],
    width: usize,
    row: impl Fn(String, &[&SuiteStats]) -> R,
) -> Vec<R> {
    cells
        .chunks(width)
        .zip(stats.chunks(width))
        .map(|(cells, stats)| row(cells[0].suite.name.clone(), stats))
        .collect()
}

/// Runs a grid of cells directly: every cell's suite statistics in cell
/// order, plus the number of suite schedules compiled.
///
/// Cells sharing a suite, solution, heuristic and scheduler projection
/// ([`MachineConfig::sched_canonical_bytes`] at the suite's interleave)
/// form one compile unit. A unit is compiled once
/// ([`Pipeline::compile_fingerprinted_suite`], each suite fingerprinted
/// once) on a fresh pipeline, so no unit's
/// schedule memo warms another's, and each of its cells replays the
/// artifact on its own machine ([`Pipeline::simulate_artifact`]). Units
/// fan out over [`par::par_map`], largest cluster count (costliest
/// search) first.
///
/// # Errors
///
/// Returns the failure of the first failing cell in cell order, wrapped
/// with its coordinates in [`PipelineError::Cell`].
///
/// # Panics
///
/// Panics on a [`Solution::Hybrid`] cell: the hybrid is derived from
/// MDC and DDGT cells ([`crate::derive_hybrid`]), not compiled.
pub fn run_direct(cells: &[Cell<'_>]) -> Result<(Vec<SuiteStats>, usize), PipelineError> {
    // A suite is identified by its address in the caller's suite list;
    // the units share one owned copy of each, so they can run on the
    // resident pool, and its content fingerprint.
    let mut owned: HashMap<*const Suite, (Arc<Suite>, [u8; 16])> = HashMap::new();
    let mut units: Vec<Unit> = Vec::new();
    let mut unit_index = HashMap::new();
    for (i, c) in cells.iter().enumerate() {
        let machine = c.machine.clone().with_interleave(c.suite.interleave_bytes);
        let projection = machine.sched_canonical_bytes();
        let suite: *const Suite = c.suite;
        let key = (projection, suite, c.solution, c.heuristic);
        let unit = *unit_index.entry(key).or_insert_with(|| {
            let (suite, fingerprint) = owned.entry(suite).or_insert_with(|| {
                let fingerprint = digest_fingerprint(&suite_digest(c.suite));
                (Arc::new(c.suite.clone()), fingerprint)
            });
            units.push(Unit {
                suite: suite.clone(),
                fingerprint: *fingerprint,
                solution: c.solution,
                heuristic: c.heuristic,
                cells: Vec::new(),
                machines: Vec::new(),
            });
            units.len() - 1
        });
        units[unit].cells.push(i);
        units[unit].machines.push(c.machine.clone());
    }
    units.sort_by_key(|unit| std::cmp::Reverse(unit.machines[0].n_clusters));
    let mut unit_of = vec![0; cells.len()];
    for (u, unit) in units.iter().enumerate() {
        unit.cells.iter().for_each(|&i| unit_of[i] = u);
    }

    let mut runs = par::par_map(&units, |unit| {
        let lead = &unit.machines[0];
        let mut span = distvliw_obs::Span::enter("direct.unit");
        span.field_str("suite", unit.suite.name.clone());
        span.field_u64("n_clusters", lead.n_clusters as u64);
        Pipeline::new(lead.clone())
            .compile_fingerprinted_suite(
                &unit.suite,
                &unit.fingerprint,
                unit.solution,
                unit.heuristic,
            )
            .map(|artifact| {
                unit.machines
                    .iter()
                    .map(|machine| Pipeline::new(machine.clone()).simulate_artifact(&artifact))
                    .collect::<Vec<_>>()
                    .into_iter()
            })
    });
    // A unit's results come back in its cells' order, so walking the
    // cells in order takes each unit's next one.
    let stats = cells
        .iter()
        .zip(unit_of)
        .map(|(cell, u)| match &mut runs[u] {
            Ok(sims) => Ok(sims.next().expect("one result per cell")),
            Err(e) => Err(cell_error(cell, e.clone())),
        })
        .collect::<Result<_, _>>()?;
    Ok((stats, units.len()))
}

/// One compile unit of [`run_direct`]: a suite, solution and heuristic
/// compiled once on its first cell's machine and replayed on every
/// cell's.
#[derive(Clone)]
struct Unit {
    suite: Arc<Suite>,
    /// The suite's content fingerprint.
    fingerprint: [u8; 16],
    solution: Solution,
    heuristic: Heuristic,
    /// The unit's cells, in cell order.
    cells: Vec<usize>,
    /// Each cell's machine, in the same order.
    machines: Vec<MachineConfig>,
}

/// Wraps a cell failure with the cell's coordinates.
fn cell_error(cell: &Cell<'_>, source: PipelineError) -> PipelineError {
    PipelineError::Cell {
        n_clusters: cell.machine.n_clusters,
        mem_buses: cell.machine.mem_buses,
        solution: cell.solution,
        heuristic: cell.heuristic,
        suite: cell.suite.name.clone(),
        source: Box::new(source),
    }
}

/// Runs a per-suite experiment directly: [`run_direct`] over the
/// [`per_suite_cells`] of `suites` × `combos`, and `fold` receives the
/// results in cell order.
///
/// # Errors
///
/// Returns the failure of the first failing cell in cell order.
pub fn run_per_suite<R>(
    machine: &MachineConfig,
    suites: &[Suite],
    combos: &[(Solution, Heuristic)],
    fold: impl FnOnce(&[Cell<'_>], &[&SuiteStats]) -> R,
) -> Result<R, PipelineError> {
    let cells = per_suite_cells(machine, &suites.iter().collect::<Vec<_>>(), combos);
    let (stats, _) = run_direct(&cells)?;
    Ok(fold(&cells, &stats.iter().collect::<Vec<_>>()))
}

/// Fraction of memory accesses per class (Figure 6 bar segments).
#[derive(Debug, Clone, Copy, Default)]
pub struct AccessBreakdown {
    /// Fractions indexed like [`AccessClass::ALL`].
    pub fractions: [f64; 5],
}

impl AccessBreakdown {
    fn of(stats: &SuiteStats) -> Self {
        let mut fractions = [0.0; 5];
        for class in AccessClass::ALL {
            fractions[class.index()] = stats.total.accesses.fraction(class);
        }
        AccessBreakdown { fractions }
    }

    /// Local hit fraction.
    #[must_use]
    pub fn local_hits(&self) -> f64 {
        self.fractions[AccessClass::LocalHit.index()]
    }
}

/// One benchmark row of Figure 6.
#[derive(Debug, Clone)]
pub struct Fig6Row {
    /// Benchmark name.
    pub benchmark: String,
    /// Free scheduling (no memory-dependence restrictions).
    pub free: AccessBreakdown,
    /// The MDC solution.
    pub mdc: AccessBreakdown,
    /// The DDGT solution.
    pub ddgt: AccessBreakdown,
}

/// Per-suite cells of Figure 6 and Table 4: Free, MDC and DDGT under
/// PrefClus.
pub const PREFCLUS_CELLS: [(Solution, Heuristic); 3] = [
    (Solution::Free, Heuristic::PrefClus),
    (Solution::Mdc, Heuristic::PrefClus),
    (Solution::Ddgt, Heuristic::PrefClus),
];

/// Folds [`PREFCLUS_CELLS`] results into Figure 6 rows.
#[must_use]
pub fn fig6_rows(cells: &[Cell<'_>], stats: &[&SuiteStats]) -> Vec<Fig6Row> {
    per_suite_rows(cells, stats, PREFCLUS_CELLS.len(), |benchmark, s| Fig6Row {
        benchmark,
        free: AccessBreakdown::of(s[0]),
        mdc: AccessBreakdown::of(s[1]),
        ddgt: AccessBreakdown::of(s[2]),
    })
}

/// Figure 6: classification of memory accesses under PrefClus.
///
/// # Errors
///
/// Propagates the first pipeline failure.
pub fn fig6(machine: &MachineConfig) -> Result<Vec<Fig6Row>, PipelineError> {
    run_per_suite(machine, &figure_suites(), &PREFCLUS_CELLS, fig6_rows)
}

/// Arithmetic-mean row over Figure 6 rows.
#[must_use]
pub fn fig6_amean(rows: &[Fig6Row]) -> Fig6Row {
    let n = rows.len().max(1) as f64;
    let mut mean = Fig6Row {
        benchmark: "AMEAN".into(),
        free: AccessBreakdown::default(),
        mdc: AccessBreakdown::default(),
        ddgt: AccessBreakdown::default(),
    };
    for row in rows {
        for i in 0..5 {
            mean.free.fractions[i] += row.free.fractions[i] / n;
            mean.mdc.fractions[i] += row.mdc.fractions[i] / n;
            mean.ddgt.fractions[i] += row.ddgt.fractions[i] / n;
        }
    }
    mean
}

/// One normalized execution-time bar (compute + stall segments).
#[derive(Debug, Clone, Copy, Default)]
pub struct NormalizedBar {
    /// Compute cycles / baseline total cycles.
    pub compute: f64,
    /// Stall cycles / baseline total cycles.
    pub stall: f64,
}

impl NormalizedBar {
    fn of(stats: &SuiteStats, baseline_total: u64) -> Self {
        let b = baseline_total.max(1) as f64;
        NormalizedBar {
            compute: stats.total.compute_cycles as f64 / b,
            stall: stats.total.stall_cycles as f64 / b,
        }
    }

    /// Total normalized cycles.
    #[must_use]
    pub fn total(&self) -> f64 {
        self.compute + self.stall
    }
}

/// One benchmark row of Figure 7 / Figure 9: the four solution bars,
/// normalized to Free(MinComs) on the same machine.
#[derive(Debug, Clone)]
pub struct ExecRow {
    /// Benchmark name.
    pub benchmark: String,
    /// MDC with PrefClus.
    pub mdc_pref: NormalizedBar,
    /// MDC with MinComs.
    pub mdc_min: NormalizedBar,
    /// DDGT with PrefClus.
    pub ddgt_pref: NormalizedBar,
    /// DDGT with MinComs.
    pub ddgt_min: NormalizedBar,
}

/// Per-suite cells of Figures 7 and 9: the Free(MinComs) baseline, then
/// MDC and DDGT under both heuristics.
pub const EXEC_CELLS: [(Solution, Heuristic); 5] = [
    (Solution::Free, Heuristic::MinComs),
    (Solution::Mdc, Heuristic::PrefClus),
    (Solution::Mdc, Heuristic::MinComs),
    (Solution::Ddgt, Heuristic::PrefClus),
    (Solution::Ddgt, Heuristic::MinComs),
];

/// Folds [`EXEC_CELLS`] results into execution-time rows, each bar
/// normalized to its suite's Free(MinComs) baseline.
#[must_use]
pub fn exec_rows(cells: &[Cell<'_>], stats: &[&SuiteStats]) -> Vec<ExecRow> {
    per_suite_rows(cells, stats, EXEC_CELLS.len(), |benchmark, s| {
        let base = s[0].total_cycles();
        ExecRow {
            benchmark,
            mdc_pref: NormalizedBar::of(s[1], base),
            mdc_min: NormalizedBar::of(s[2], base),
            ddgt_pref: NormalizedBar::of(s[3], base),
            ddgt_min: NormalizedBar::of(s[4], base),
        }
    })
}

/// Figure 7: normalized execution time for the four solution/heuristic
/// combinations, baseline Free(MinComs).
///
/// # Errors
///
/// Propagates the first pipeline failure.
pub fn fig7(machine: &MachineConfig) -> Result<Vec<ExecRow>, PipelineError> {
    run_per_suite(machine, &figure_suites(), &EXEC_CELLS, exec_rows)
}

/// The Figure 9 machine: `base` with 16-entry 2-way Attraction Buffers
/// (the Free(MinComs) baseline also has the buffers).
#[must_use]
pub fn fig9_machine(base: &MachineConfig) -> MachineConfig {
    base.clone()
        .with_attraction_buffers(AttractionBufferConfig::paper())
}

/// Figure 9: the Figure 7 bars on the [`fig9_machine`].
///
/// # Errors
///
/// Propagates the first pipeline failure.
pub fn fig9(machine: &MachineConfig) -> Result<Vec<ExecRow>, PipelineError> {
    fig7(&fig9_machine(machine))
}

/// Arithmetic-mean row over execution-time rows.
#[must_use]
pub fn exec_amean(rows: &[ExecRow]) -> ExecRow {
    let n = rows.len().max(1) as f64;
    let mut mean = ExecRow {
        benchmark: "AMEAN".into(),
        mdc_pref: NormalizedBar::default(),
        mdc_min: NormalizedBar::default(),
        ddgt_pref: NormalizedBar::default(),
        ddgt_min: NormalizedBar::default(),
    };
    for r in rows {
        for (acc, bar) in [
            (&mut mean.mdc_pref, r.mdc_pref),
            (&mut mean.mdc_min, r.mdc_min),
            (&mut mean.ddgt_pref, r.ddgt_pref),
            (&mut mean.ddgt_min, r.ddgt_min),
        ] {
            acc.compute += bar.compute / n;
            acc.stall += bar.stall / n;
        }
    }
    mean
}

/// One benchmark row of Table 3.
#[derive(Debug, Clone)]
pub struct Table3Row {
    /// Benchmark name.
    pub benchmark: String,
    /// Measured chain ratios.
    pub stats: ChainStats,
    /// The paper's published ratios, when available.
    pub paper: Option<(f64, f64)>,
}

/// Table 3: CMR and CAR per benchmark.
#[must_use]
pub fn table3() -> Vec<Table3Row> {
    distvliw_mediabench::BENCHMARKS
        .iter()
        .filter(|spec| distvliw_mediabench::FIGURE_BENCHMARKS.contains(&spec.name))
        .map(|spec| {
            let suite = distvliw_mediabench::build_suite(spec);
            Table3Row {
                benchmark: spec.name.to_string(),
                stats: chain_stats(suite.kernels.iter()),
                paper: spec.table3,
            }
        })
        .collect()
}

/// One benchmark row of Table 4.
#[derive(Debug, Clone)]
pub struct Table4Row {
    /// Benchmark name.
    pub benchmark: String,
    /// Dynamic communication operations of DDGT over MDC (PrefClus).
    pub comm_ratio: f64,
    /// DDGT speedup over MDC on the *selected loops* (loops with ≥10%
    /// MDC slowdown vs the Free baseline), `None` when no loop
    /// qualifies (the paper's dashes).
    pub selected_speedup: Option<f64>,
}

/// Folds [`PREFCLUS_CELLS`] results into Table 4 rows.
#[must_use]
pub fn table4_rows(cells: &[Cell<'_>], stats: &[&SuiteStats]) -> Vec<Table4Row> {
    per_suite_rows(cells, stats, PREFCLUS_CELLS.len(), |benchmark, s| {
        let (free, mdc, ddgt) = (s[0], s[1], s[2]);
        let comm_ratio = ddgt.total.comm_ops as f64 / (mdc.total.comm_ops.max(1)) as f64;

        // Selected loops: ≥10% MDC slowdown vs the Free baseline.
        let mut mdc_cycles = 0u64;
        let mut ddgt_cycles = 0u64;
        for ((f, m), d) in free.kernels.iter().zip(&mdc.kernels).zip(&ddgt.kernels) {
            if m.stats.total_cycles() as f64 >= 1.10 * f.stats.total_cycles() as f64 {
                mdc_cycles += m.stats.total_cycles();
                ddgt_cycles += d.stats.total_cycles();
            }
        }
        let selected_speedup =
            (mdc_cycles > 0).then(|| mdc_cycles as f64 / ddgt_cycles.max(1) as f64 - 1.0);
        Table4Row {
            benchmark,
            comm_ratio,
            selected_speedup,
        }
    })
}

/// Table 4: Δ communication operations and selected-loop speedups
/// (PrefClus).
///
/// # Errors
///
/// Propagates the first pipeline failure.
pub fn table4(machine: &MachineConfig) -> Result<Vec<Table4Row>, PipelineError> {
    run_per_suite(machine, &figure_suites(), &PREFCLUS_CELLS, table4_rows)
}

/// One benchmark row of Table 5.
#[derive(Debug, Clone)]
pub struct Table5Row {
    /// Benchmark name.
    pub benchmark: String,
    /// Ratios before code specialization.
    pub old: ChainStats,
    /// Ratios after code specialization.
    pub new: ChainStats,
    /// Paper values `(old_cmr, old_car, new_cmr, new_car)`.
    pub paper: (f64, f64, f64, f64),
}

/// Table 5: chain restrictions before and after code specialization for
/// epicdec, pgpdec and rasta (paper Section 6).
#[must_use]
pub fn table5() -> Vec<Table5Row> {
    let targets = [
        ("epicdec", (0.64, 0.22, 0.20, 0.06)),
        ("pgpdec", (0.73, 0.24, 0.52, 0.17)),
        ("rasta", (0.52, 0.26, 0.13, 0.06)),
    ];
    targets
        .iter()
        .map(|&(name, paper)| {
            let s = suite(name).expect("specialization benchmarks exist");
            let old = chain_stats(s.kernels.iter());
            let specialized: Vec<_> = s.kernels.iter().map(|k| specialize_kernel(k).0).collect();
            let new = chain_stats(specialized.iter());
            Table5Row {
                benchmark: name.to_string(),
                old,
                new,
                paper,
            }
        })
        .collect()
}

/// One benchmark row of the NOBAL bus-configuration study (Section 4.2,
/// "Other architectural configurations").
#[derive(Debug, Clone)]
pub struct NobalRow {
    /// Benchmark name.
    pub benchmark: String,
    /// Best MDC total cycles (over both heuristics).
    pub best_mdc: u64,
    /// DDGT(PrefClus) total cycles.
    pub ddgt_pref: u64,
    /// Speedup of DDGT(PrefClus) over the best MDC (positive = DDGT
    /// wins).
    pub ddgt_speedup: f64,
}

/// Per-suite cells of the NOBAL study on one machine variant.
pub const NOBAL_CELLS: [(Solution, Heuristic); 3] = [
    (Solution::Mdc, Heuristic::PrefClus),
    (Solution::Mdc, Heuristic::MinComs),
    (Solution::Ddgt, Heuristic::PrefClus),
];

/// The two NOBAL machine variants, by study name, in report order.
#[must_use]
pub fn nobal_machines() -> [(&'static str, MachineConfig); 2] {
    [
        ("nobal_mem", MachineConfig::nobal_mem()),
        ("nobal_reg", MachineConfig::nobal_reg()),
    ]
}

/// Folds [`NOBAL_CELLS`] results into NOBAL rows.
#[must_use]
pub fn nobal_rows(cells: &[Cell<'_>], stats: &[&SuiteStats]) -> Vec<NobalRow> {
    per_suite_rows(cells, stats, NOBAL_CELLS.len(), |benchmark, s| {
        let best_mdc = s[0].total_cycles().min(s[1].total_cycles());
        let ddgt_pref = s[2].total_cycles();
        NobalRow {
            benchmark,
            best_mdc,
            ddgt_pref,
            ddgt_speedup: best_mdc as f64 / ddgt_pref.max(1) as f64 - 1.0,
        }
    })
}

/// Runs the NOBAL study on one machine variant
/// ([`MachineConfig::nobal_mem`] or [`MachineConfig::nobal_reg`]).
///
/// # Errors
///
/// Propagates the first pipeline failure.
pub fn nobal(machine: &MachineConfig) -> Result<Vec<NobalRow>, PipelineError> {
    run_per_suite(machine, &figure_suites(), &NOBAL_CELLS, nobal_rows)
}

/// The gsmdec loop case study of Section 4.2 and the epicdec Attraction
/// Buffer case study of Section 5.4.
#[derive(Debug, Clone)]
pub struct CaseStudy {
    /// Which loop.
    pub name: String,
    /// MDC(PrefClus) compute and stall cycles.
    pub mdc: (u64, u64),
    /// DDGT(PrefClus) compute and stall cycles.
    pub ddgt: (u64, u64),
    /// MDC local hit ratio.
    pub mdc_local: f64,
    /// DDGT local hit ratio.
    pub ddgt_local: f64,
    /// Speedup of DDGT over MDC on this loop.
    pub speedup: f64,
}

fn case_study(machine: &MachineConfig, bench: &str) -> Result<CaseStudy, PipelineError> {
    let s = suite(bench).expect("case-study benchmark exists");
    let pipeline = Pipeline::new(machine.clone().with_interleave(s.interleave_bytes));
    let chained = &s.kernels[0];
    let mdc = pipeline.run_kernel(chained, Solution::Mdc, Heuristic::PrefClus)?;
    let ddgt = pipeline.run_kernel(chained, Solution::Ddgt, Heuristic::PrefClus)?;
    Ok(CaseStudy {
        name: format!("{bench}.{}", chained.name),
        mdc: (mdc.stats.compute_cycles, mdc.stats.stall_cycles),
        ddgt: (ddgt.stats.compute_cycles, ddgt.stats.stall_cycles),
        mdc_local: mdc.stats.local_hit_ratio(),
        ddgt_local: ddgt.stats.local_hit_ratio(),
        speedup: mdc.stats.total_cycles() as f64 / ddgt.stats.total_cycles().max(1) as f64 - 1.0,
    })
}

/// The gsmdec selected-loop case study (paper Section 4.2).
///
/// # Errors
///
/// Propagates pipeline failures.
pub fn gsmdec_case_study(machine: &MachineConfig) -> Result<CaseStudy, PipelineError> {
    case_study(machine, "gsmdec")
}

/// The epicdec Attraction-Buffer case study (paper Section 5.4): the
/// 76-memory-op chain loop with 16-entry 2-way buffers.
///
/// # Errors
///
/// Propagates pipeline failures.
pub fn epicdec_ab_case_study(machine: &MachineConfig) -> Result<CaseStudy, PipelineError> {
    case_study(&fig9_machine(machine), "epicdec")
}

/// Description of a sensitivity sweep: the cluster-count × memory-bus
/// grid of paper Section 5.4's scaling question. Every grid point runs
/// all four solutions ([`SWEEP_SOLUTIONS`]) under one heuristic.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SweepSpec {
    /// Cluster counts to sweep (default 2/4/8/16).
    pub cluster_counts: Vec<usize>,
    /// Memory-bus configurations to sweep (count × latency grid).
    pub mem_buses: Vec<BusConfig>,
    /// Cluster-assignment heuristic for every cell.
    pub heuristic: Heuristic,
}

impl Default for SweepSpec {
    /// The default grid: cluster counts 2/4/8/16 × three memory-bus
    /// points — the paper's baseline (4 buses @ 2 cycles), half the
    /// buses (4→2) and double the latency (2→4).
    fn default() -> Self {
        SweepSpec {
            cluster_counts: vec![2, 4, 8, 16],
            mem_buses: vec![
                BusConfig {
                    count: 4,
                    latency: 2,
                },
                BusConfig {
                    count: 2,
                    latency: 2,
                },
                BusConfig {
                    count: 4,
                    latency: 4,
                },
            ],
            heuristic: Heuristic::PrefClus,
        }
    }
}

/// The four solutions every sweep cell runs, in row order.
pub const SWEEP_SOLUTIONS: [Solution; 4] = [
    Solution::Free,
    Solution::Mdc,
    Solution::Ddgt,
    Solution::Hybrid,
];

/// The machine for one sweep grid point: `base` with the cluster count
/// and memory buses replaced. The cache block size is raised to the
/// cluster stripe (`n_clusters × 4` bytes, the widest bundled
/// interleave) when the baseline block no longer divides evenly —
/// total capacity is unchanged, so configurations at ≤ 8 clusters keep
/// the paper's 32-byte blocks exactly.
///
/// # Panics
///
/// Panics if the resulting configuration is invalid (impossible for
/// power-of-two cluster counts over a valid base).
#[must_use]
pub fn sweep_machine(
    base: &MachineConfig,
    n_clusters: usize,
    mem_buses: BusConfig,
) -> MachineConfig {
    let mut machine = base.clone();
    machine.n_clusters = n_clusters;
    machine.mem_buses = mem_buses;
    let stripe = n_clusters as u64 * 4;
    if !machine.cache.block_bytes.is_multiple_of(stripe) {
        machine.cache.block_bytes = machine.cache.block_bytes.max(stripe);
    }
    machine.validate().expect("sweep machine is valid");
    machine
}

/// Names of the suites the default sweep runs, in sweep order — one
/// chained synthetic benchmark plus the bundled recorded traces. The
/// serving layer resolves these against its resident suites so a warm
/// `GET /sweep` never rebuilds a workload; kept in lock-step with
/// [`sweep_default_suites`] by a unit test.
pub const SWEEP_DEFAULT_SUITE_NAMES: [&str; 3] = ["gsmdec", "fir8", "ptrchase"];

/// The suites the default sweep (`repro sweep` and `GET /sweep`) runs
/// ([`SWEEP_DEFAULT_SUITE_NAMES`]): small enough that the full
/// 2→16-cluster grid stays cheap, broad enough to cover both workload
/// classes.
#[must_use]
pub fn sweep_default_suites() -> Vec<Suite> {
    let traces = trace_suites();
    SWEEP_DEFAULT_SUITE_NAMES
        .iter()
        .map(|name| {
            suite(name)
                .or_else(|| traces.iter().find(|t| t.name == *name).cloned())
                .expect("default sweep suites are bundled")
        })
        .collect()
}

/// One `(cluster count, bus point, solution)` row of a sweep, aggregated
/// over all swept suites.
#[derive(Debug, Clone)]
pub struct SweepRow {
    /// Cluster count of this grid point.
    pub n_clusters: usize,
    /// Memory-bus configuration of this grid point.
    pub mem_buses: BusConfig,
    /// Coherence solution of this row.
    pub solution: Solution,
    /// Total cycles over all suites.
    pub total_cycles: u64,
    /// Stall cycles over all suites.
    pub stall_cycles: u64,
    /// Memory-bus busy cycles over all suites.
    pub bus_busy_cycles: u64,
    /// Summed bus drain windows over all suites (each at least its
    /// suite's total cycles — see `SimStats::bus_drain_cycles`); the
    /// denominator that keeps [`SweepRow::bus_occupancy`] ≤ 1.
    pub bus_drain_cycles: u64,
    /// Coherence violations (nonzero only for the Free baseline).
    pub violations: u64,
    /// Classified memory accesses over all suites.
    pub accesses: u64,
    /// Per-cluster usage aggregated over all suites (the imbalance
    /// surface; its length equals `n_clusters`).
    pub cluster: ClusterUsage,
    /// Scheduler search effort over all suites (ejections, placement
    /// attempts — the ejection-scheduler trajectory the sweep report
    /// surfaces).
    pub sched: crate::SchedTotals,
}

impl SweepRow {
    /// The busiest-cluster-over-mean imbalance ratio of this row.
    #[must_use]
    pub fn imbalance(&self) -> f64 {
        self.cluster.imbalance()
    }

    /// Fraction of the available bus capacity the memory buses were
    /// busy. The window is the drain (`bus_drain_cycles`), not the
    /// issue span: fire-and-forget stores can keep the buses busy past
    /// the last issue cycle, and over the drain window occupancy is
    /// always ≤ 1.
    #[must_use]
    pub fn bus_occupancy(&self) -> f64 {
        let capacity = self
            .bus_drain_cycles
            .saturating_mul(self.mem_buses.count as u64);
        if capacity == 0 {
            0.0
        } else {
            self.bus_busy_cycles as f64 / capacity as f64
        }
    }
}

/// Folds per-suite statistics into one [`SweepRow`].
#[must_use]
pub fn sweep_row(
    n_clusters: usize,
    mem_buses: BusConfig,
    solution: Solution,
    per_suite: &[&SuiteStats],
) -> SweepRow {
    let mut row = SweepRow {
        n_clusters,
        mem_buses,
        solution,
        total_cycles: 0,
        stall_cycles: 0,
        bus_busy_cycles: 0,
        bus_drain_cycles: 0,
        violations: 0,
        accesses: 0,
        cluster: ClusterUsage::default(),
        sched: crate::SchedTotals::default(),
    };
    for stats in per_suite {
        row.total_cycles += stats.total_cycles();
        row.stall_cycles += stats.total.stall_cycles;
        row.bus_busy_cycles += stats.total.bus_busy_cycles;
        row.bus_drain_cycles += stats.total.bus_drain_cycles;
        row.violations += stats.total.coherence_violations;
        row.accesses += stats.total.accesses.total();
        row.cluster += &stats.cluster;
        row.sched += &stats.sched;
    }
    row
}

/// Reuse telemetry of one factored [`sweep`] run: how many suite
/// schedules were actually compiled, how many grid cells replayed an
/// artifact compiled for an earlier bus point, and how many compiles
/// were *fallbacks* — a sim axis that turned out to be scheduler-visible
/// (bus latency feeds the scheduler's remote-access latencies), so the
/// runner had to recompile instead of reusing. The sweep report surfaces
/// these so dropped reuse is never silent.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SweepReuse {
    /// Suite-level schedule artifacts compiled (one per distinct
    /// scheduler projection × solution × suite).
    pub schedules_compiled: u64,
    /// Concrete grid cells served by an artifact compiled for an
    /// earlier grid point (bus count is sim-only, so these cells paid
    /// for simulation only).
    pub schedules_reused: u64,
    /// Compiles forced because a `(cluster count, solution, suite)`
    /// combination met a *second* scheduler projection — the sched-axis
    /// fallback counter (bus latency changes the projection; bus count
    /// never does).
    pub sched_axis_recompiles: u64,
}

/// The result of a factored [`sweep`]: the grid rows in `(cluster
/// count, bus point, solution)` nesting order plus the reuse telemetry.
#[derive(Debug, Clone)]
pub struct SweepRun {
    /// Grid rows, one per [`sweep_points`] machine × [`SWEEP_SOLUTIONS`]
    /// entry, in that nesting order.
    pub rows: Vec<SweepRow>,
    /// Schedule-artifact reuse counters.
    pub reuse: SweepReuse,
}

/// The concrete (compiled) solutions of every sweep cell; the trailing
/// [`Solution::Hybrid`] row of [`SWEEP_SOLUTIONS`] is derived from the
/// MDC and DDGT runs per loop ([`crate::derive_hybrid`]).
const SWEEP_CONCRETE: [Solution; 3] = [Solution::Free, Solution::Mdc, Solution::Ddgt];

/// The machines of a sweep grid, one per `(cluster count, bus point)`
/// of `spec`, in that nesting order ([`sweep_machine`]).
#[must_use]
pub fn sweep_points(base: &MachineConfig, spec: &SweepSpec) -> Vec<MachineConfig> {
    spec.cluster_counts
        .iter()
        .flat_map(|&n| {
            spec.mem_buses
                .iter()
                .map(move |&bus| sweep_machine(base, n, bus))
        })
        .collect()
}

/// The concrete cells of a sweep: per grid point (`points`, from
/// [`sweep_points`]), per concrete solution (Free, MDC, DDGT), per suite.
#[must_use]
pub fn sweep_cells<'a>(
    points: &'a [MachineConfig],
    suites: &[&'a Suite],
    heuristic: Heuristic,
) -> Vec<Cell<'a>> {
    points
        .iter()
        .flat_map(|machine| {
            SWEEP_CONCRETE.iter().flat_map(move |&solution| {
                per_suite_cells(machine, suites, &[(solution, heuristic)])
            })
        })
        .collect()
}

/// Folds [`sweep_cells`] results into sweep rows in `(cluster count,
/// bus point, solution)` order: per grid point, one row per concrete
/// solution, then the Hybrid row derived per loop from the MDC and DDGT
/// cells ([`crate::derive_hybrid`]) without any extra compile or
/// simulation.
#[must_use]
pub fn sweep_rows(cells: &[Cell<'_>], stats: &[&SuiteStats]) -> Vec<SweepRow> {
    let mut rows = Vec::new();
    let mut at = 0;
    for point in cells.chunk_by(|a, b| std::ptr::eq(a.machine, b.machine)) {
        let (n_clusters, mem_buses) = (point[0].machine.n_clusters, point[0].machine.mem_buses);
        let n_suites = point.len() / SWEEP_CONCRETE.len();
        let of = |i: usize| &stats[at + i * n_suites..at + (i + 1) * n_suites];
        for (i, &solution) in SWEEP_CONCRETE.iter().enumerate() {
            rows.push(sweep_row(n_clusters, mem_buses, solution, of(i)));
        }
        let hybrid: Vec<SuiteStats> = of(1)
            .iter()
            .zip(of(2))
            .map(|(mdc, ddgt)| crate::derive_hybrid(mdc, ddgt))
            .collect();
        let refs: Vec<&SuiteStats> = hybrid.iter().collect();
        rows.push(sweep_row(n_clusters, mem_buses, Solution::Hybrid, &refs));
        at += point.len();
    }
    rows
}

/// Runs the sensitivity sweep: [`run_direct`] over the [`sweep_cells`]
/// of [`sweep_points`], folded through [`sweep_rows`], which derives the
/// hybrid rows. Bus count is simulation-only, so cells that differ only
/// in it replay one schedule; bus latency feeds the scheduler's
/// remote-access latencies, so its cells recompile, and [`SweepReuse`]
/// counts both.
///
/// Every compile unit schedules from a cold pipeline, so the result is
/// byte-identical to running every cell of [`sweep_points`] ×
/// [`SWEEP_SOLUTIONS`] through a cold [`Pipeline::run_suite`] and
/// folding it with [`sweep_row`] — the equivalence the
/// `tests/sweep_equivalence.rs` suite pins.
///
/// # Errors
///
/// Reports the first failing cell in row order, wrapped with its
/// coordinates ([`PipelineError::Cell`]).
pub fn sweep(
    base: &MachineConfig,
    suites: &[Suite],
    spec: &SweepSpec,
) -> Result<SweepRun, PipelineError> {
    let points = sweep_points(base, spec);
    let cells = sweep_cells(&points, &suites.iter().collect::<Vec<_>>(), spec.heuristic);
    let (stats, compiled) = run_direct(&cells)?;
    let rows = sweep_rows(&cells, &stats.iter().collect::<Vec<_>>());

    // Each `(cluster count, solution, suite)` needs one compile; every
    // further unit met a second scheduler projection.
    let triple = |c: &Cell<'_>| {
        (
            c.machine.n_clusters,
            c.solution,
            std::ptr::from_ref(c.suite),
        )
    };
    let triples: HashSet<_> = cells.iter().map(triple).collect();
    let reuse = SweepReuse {
        schedules_compiled: compiled as u64,
        schedules_reused: (cells.len() - compiled) as u64,
        sched_axis_recompiles: (compiled - triples.len()) as u64,
    };
    Ok(SweepRun { rows, reuse })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table3_reports_all_figure_benchmarks() {
        let rows = table3();
        assert_eq!(rows.len(), 13);
        for row in &rows {
            assert!(row.stats.car <= row.stats.cmr + 1e-9, "{}", row.benchmark);
        }
    }

    #[test]
    fn table5_specialization_shrinks_chains() {
        for row in table5() {
            assert!(
                row.new.cmr < row.old.cmr,
                "{}: {} !< {}",
                row.benchmark,
                row.new.cmr,
                row.old.cmr
            );
            assert!(row.new.car <= row.old.car + 1e-9, "{}", row.benchmark);
        }
    }

    #[test]
    fn sweep_machine_scales_block_only_when_needed() {
        let base = MachineConfig::paper_baseline();
        let bus = base.mem_buses;
        for n in [2, 4, 8] {
            let m = sweep_machine(&base, n, bus);
            assert_eq!(m.cache.block_bytes, 32, "{n} clusters keep paper blocks");
            assert_eq!(m.validate(), Ok(()));
        }
        let m = sweep_machine(&base, 16, bus);
        assert_eq!(m.cache.block_bytes, 64, "16 clusters need a 64B stripe");
        assert_eq!(m.cache.total_bytes, base.cache.total_bytes);
        assert_eq!(m.validate(), Ok(()));
        // Bus overrides land.
        let m = sweep_machine(
            &base,
            8,
            BusConfig {
                count: 2,
                latency: 4,
            },
        );
        assert_eq!(m.mem_buses.count, 2);
        assert_eq!(m.mem_buses.latency, 4);
        // Both bundled interleaves validate at every swept count.
        for n in SweepSpec::default().cluster_counts {
            for il in [2, 4] {
                let m = sweep_machine(&base, n, bus).with_interleave(il);
                assert_eq!(m.validate(), Ok(()), "{n} clusters, {il}B interleave");
            }
        }
    }

    #[test]
    fn every_machine_the_repo_builds_validates() {
        // The pipeline re-interleaves a machine per suite, so each one
        // must stay valid at both bundled interleaves (paper Table 1).
        let base = MachineConfig::paper_baseline();
        let mut machines = vec![base.clone(), fig9_machine(&base)];
        machines.extend(nobal_machines().map(|(_, m)| m));
        machines.extend(sweep_points(&base, &SweepSpec::default()));
        for machine in machines {
            for il in [2, 4] {
                let m = machine.clone().with_interleave(il);
                assert_eq!(m.validate(), Ok(()), "{m:?}");
            }
        }
    }

    #[test]
    fn sweep_covers_grid_and_stays_coherent() {
        let spec = SweepSpec {
            cluster_counts: vec![2, 8],
            mem_buses: vec![BusConfig {
                count: 4,
                latency: 2,
            }],
            heuristic: Heuristic::PrefClus,
        };
        let suites = trace_suites();
        let run = sweep(&MachineConfig::paper_baseline(), &suites, &spec).unwrap();
        // One bus point: every concrete cell compiles, nothing reuses.
        assert_eq!(run.reuse.schedules_compiled, (2 * 3 * suites.len()) as u64);
        assert_eq!(run.reuse.schedules_reused, 0);
        assert_eq!(run.reuse.sched_axis_recompiles, 0);
        let rows = run.rows;
        assert_eq!(rows.len(), 2 * SWEEP_SOLUTIONS.len());
        for row in &rows {
            assert!(row.total_cycles > 0);
            assert!(row.accesses > 0);
            assert_eq!(
                row.cluster.accesses.len(),
                row.n_clusters,
                "per-cluster counters span the whole machine"
            );
            assert!(row.imbalance() >= 1.0);
            // The drain window bounds the busy cycles — occupancy is a
            // true fraction even for store-heavy traces whose transfers
            // queue past the schedule drain.
            assert!(row.bus_drain_cycles >= row.total_cycles);
            assert!(
                row.bus_busy_cycles <= row.bus_drain_cycles * row.mem_buses.count as u64,
                "{}/{}",
                row.n_clusters,
                row.solution
            );
            assert!(row.bus_occupancy() <= 1.0);
            if row.solution != Solution::Free {
                assert_eq!(row.violations, 0, "{}/{}", row.n_clusters, row.solution);
            }
        }
        // Hybrid never loses to either pure solution, at every scale.
        for chunk in rows.chunks(4) {
            let (mdc, ddgt, hybrid) = (&chunk[1], &chunk[2], &chunk[3]);
            assert!(hybrid.total_cycles <= mdc.total_cycles.min(ddgt.total_cycles));
        }
    }

    #[test]
    fn sweep_default_suites_match_their_name_list() {
        // The serving layer resolves SWEEP_DEFAULT_SUITE_NAMES against
        // its resident suites, so the name list and the suite builder
        // must agree exactly (order included).
        let names: Vec<String> = sweep_default_suites()
            .iter()
            .map(|s| s.name.clone())
            .collect();
        assert_eq!(names, SWEEP_DEFAULT_SUITE_NAMES);
        // And the mix covers both workload classes.
        assert!(names.contains(&"gsmdec".to_string()));
        assert!(names.iter().any(|n| n != "gsmdec"));
    }

    #[test]
    fn fig6_single_benchmark_shapes() {
        // Run one benchmark end to end (full fig6 is exercised by the
        // reproduction binaries; this keeps unit tests fast).
        let pgpdec = [suite("pgpdec").unwrap()];
        let rows = run_per_suite(
            &MachineConfig::paper_baseline(),
            &pgpdec,
            &PREFCLUS_CELLS,
            fig6_rows,
        )
        .unwrap();
        let (f, m, d) = (rows[0].free, rows[0].mdc, rows[0].ddgt);
        // The paper's ordering: DDGT maximizes local accesses; MDC
        // colocation reduces them below the unrestricted baseline.
        assert!(
            d.local_hits() >= m.local_hits(),
            "DDGT {} vs MDC {}",
            d.local_hits(),
            m.local_hits()
        );
        assert!(
            f.local_hits() >= m.local_hits(),
            "Free {} vs MDC {}",
            f.local_hits(),
            m.local_hits()
        );
    }
}
