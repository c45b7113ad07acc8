//! The traced run: per-layer numbers. Each layer's public functions are
//! called directly from here and timed around the call; nothing inside
//! the program is instrumented for it. Layers are named after the
//! crates (`mediabench`, `ir`, `coherence`, `sched`, `check`, `sim`,
//! `core`, `serve`, `obs`).
//!
//! The compile/simulate layers are measured by a layer-by-layer replay
//! of the cell grid a cold engine computes for `/fig7` then `/sweep`
//! (each cell at its suite's interleave). The replay seeds each II
//! search as the engine's shared seed store does: by scheduling
//! problem, so cells differing only in simulation fields (the memory-bus
//! count) and `/sweep` cells repeating a `/fig7` problem open at the II
//! already achieved. It is validated against the program's own
//! counters: its schedule, II, placement, ejection, seeded-search and
//! simulation counts over `/fig7`, and over `/fig7` + `/sweep`, must
//! equal the counter deltas of a cold `/fig7` then `/sweep` on a fresh
//! engine whose fan-out is serial, so its cells reach the seed store in
//! request order as the replay's do. (With parallel fan-out, whether a
//! cell finds a seed its neighbour is still computing depends on
//! timing.) All exact counts — the replay's and the fixed-length
//! `matrix_churn` stream's `/stats` deltas — repeat exactly from run to
//! run. The pass is the same for every workload.

use std::collections::{BTreeMap, HashMap, HashSet};
use std::hint::black_box;
use std::sync::Arc;
use std::time::{Duration, Instant};

use distvliw_arch::MachineConfig;
use distvliw_check::check_schedule;
use distvliw_coherence::{find_chains, transform, SchedConstraints};
use distvliw_core::cachekey::{cell_key_from_fingerprint, digest_fingerprint, suite_digest};
use distvliw_core::experiments::{sweep_machine, SweepSpec, SWEEP_DEFAULT_SUITE_NAMES};
use distvliw_core::{par, Heuristic, Pipeline, PipelineError, PipelineOptions, Solution};
use distvliw_ir::profile::preferred_clusters;
use distvliw_ir::{Ddg, DepKind, MemId, NodeId, OpKind, PrefMap, Suite};
use distvliw_mediabench::{build_suite, bundled_traces, Trace, BENCHMARKS, FIGURE_BENCHMARKS};
use distvliw_sched::{ModuloScheduler, SchedStats};
use distvliw_serve::cache::ResultCache;
use distvliw_serve::client::Client;
use distvliw_serve::engine::CellResult;
use distvliw_serve::http::{parse_request, render_response, Parse, Request, Response};
use distvliw_serve::json::Json;
use distvliw_serve::{endpoints, persist};
use distvliw_sim::{simulate_kernel_detailed, SimOptions};

use crate::stats::{self, ns_per_call, Rng};
use crate::workloads::{
    churn_capacity, churn_deltas, churn_engine, counter, figure_engine, matrix_pool,
    matrix_request, matrix_warmup, parse_json, send, state_dir, Booted, FIGURE_CACHE, ROUTES,
};
use crate::{Args, Report};

/// Requests of the traced `matrix_churn` stream after its warm-up: a
/// fixed count, so its `/stats` deltas are exact.
const CHURN_TRACE_REQUESTS: usize = 150;

/// Runs the traced pass (the same for every workload).
pub fn run(args: &Args) -> Report {
    let mut report = Report::default();
    let suites = setup_layers(&mut report);
    replay_layers(&mut report, &suites, Duration::from_secs(args.seconds) / 2);
    warm_layers(&mut report, &suites, args.seed);
    churn_layers(&mut report, args.seed);
    report.metric(
        "obs.span_ns",
        ns_per_call(200, 1_000, || drop(distvliw_obs::Span::enter("perfbench"))),
    );
    report
}

/// Every suite a serving engine holds: the synthetic benchmarks, then
/// the bundled traces.
fn setup_layers(report: &mut Report) -> Vec<Suite> {
    let (mut build, mut parse, mut fingerprint) = (Vec::new(), Vec::new(), Vec::new());
    let mut suites = Vec::new();
    for _ in 0..5 {
        let start = Instant::now();
        let built: Vec<Suite> = BENCHMARKS.iter().map(build_suite).collect();
        build.push(stats::ms(start.elapsed()));
        let start = Instant::now();
        let traces = bundled_traces();
        parse.push(stats::ms(start.elapsed()));
        suites = built
            .into_iter()
            .chain(traces.iter().map(Trace::to_suite))
            .collect();
        let start = Instant::now();
        black_box(
            suites
                .iter()
                .map(|s| digest_fingerprint(&suite_digest(s)))
                .collect::<Vec<_>>(),
        );
        fingerprint.push(stats::ms(start.elapsed()));
    }
    report.metric("mediabench.build_suites_ms", stats::median(&build));
    report.metric("mediabench.trace_parse_ms", stats::median(&parse));
    report.metric("core.suite_fingerprint_ms", stats::median(&fingerprint));
    suites
}

fn suite<'a>(suites: &'a [Suite], name: &str) -> &'a Suite {
    suites
        .iter()
        .find(|s| s.name == name)
        .expect("bundled suite")
}

/// One experiment cell.
struct Cell<'a> {
    suite: &'a Suite,
    machine: MachineConfig,
    solution: Solution,
    heuristic: Heuristic,
}

/// The `/fig7` grid (13 suites × Free/MinComs + four MDC/DDGT bars, the
/// served order) on the paper machine.
fn fig7_grid(suites: &[Suite]) -> Vec<Cell<'_>> {
    let mut cells = Vec::new();
    for name in FIGURE_BENCHMARKS {
        for (solution, heuristic) in [
            (Solution::Free, Heuristic::MinComs),
            (Solution::Mdc, Heuristic::PrefClus),
            (Solution::Mdc, Heuristic::MinComs),
            (Solution::Ddgt, Heuristic::PrefClus),
            (Solution::Ddgt, Heuristic::MinComs),
        ] {
            cells.push(Cell {
                suite: suite(suites, name),
                machine: MachineConfig::paper_baseline(),
                solution,
                heuristic,
            });
        }
    }
    cells
}

/// The `/fig7` grid followed by the `/sweep` cells a cold engine still
/// has to compute after it (cells already computed for `/fig7` are
/// cache hits there).
fn cold_grid(suites: &[Suite]) -> Vec<Cell<'_>> {
    let options = PipelineOptions::default();
    let key = |c: &Cell| {
        cell_key_from_fingerprint(
            &digest_fingerprint(&suite_digest(c.suite)),
            &c.machine,
            &options,
            c.solution,
            c.heuristic,
        )
    };
    let mut cells = fig7_grid(suites);
    let mut seen: HashSet<_> = cells.iter().map(key).collect();
    let spec = SweepSpec::default();
    for &n_clusters in &spec.cluster_counts {
        for &buses in &spec.mem_buses {
            let machine = sweep_machine(&MachineConfig::paper_baseline(), n_clusters, buses);
            for solution in [Solution::Free, Solution::Mdc, Solution::Ddgt] {
                for name in SWEEP_DEFAULT_SUITE_NAMES {
                    let cell = Cell {
                        suite: suite(suites, name),
                        machine: machine.clone(),
                        solution,
                        heuristic: spec.heuristic,
                    };
                    if seen.insert(key(&cell)) {
                        cells.push(cell);
                    }
                }
            }
        }
    }
    cells
}

/// One scheduling problem, made of the fields the pipeline keys its II
/// seeds by: the machine's scheduler projection, graph topology,
/// constraints, profile and heuristic (latency relaxation is on in both).
#[derive(PartialEq, Eq, Hash)]
struct SeedKey {
    machine: Vec<u8>,
    ops: Vec<(OpKind, Option<MemId>)>,
    deps: Vec<(NodeId, NodeId, DepKind, u32)>,
    colocate: BTreeMap<NodeId, u32>,
    group_target: BTreeMap<u32, usize>,
    pinned: BTreeMap<NodeId, usize>,
    min_ii: u32,
    prefs: Vec<(MemId, Vec<u64>)>,
    heuristic: Heuristic,
}

impl SeedKey {
    fn new(
        machine: &MachineConfig,
        ddg: &Ddg,
        constraints: &SchedConstraints,
        prefs: &PrefMap,
        heuristic: Heuristic,
    ) -> SeedKey {
        SeedKey {
            machine: machine.sched_canonical_bytes(),
            ops: ddg.iter().map(|(_, op)| (op.kind, op.mem_id())).collect(),
            deps: ddg
                .deps()
                .map(|(_, d)| (d.src, d.dst, d.kind, d.distance))
                .collect(),
            colocate: constraints.colocate.clone(),
            group_target: constraints.group_target.clone(),
            pinned: constraints.pinned.clone(),
            min_ii: constraints.min_ii,
            prefs: prefs
                .iter()
                .map(|(m, info)| (*m, info.counts().to_vec()))
                .collect(),
            heuristic,
        }
    }
}

/// Exact work counts of one replay.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
struct Counts {
    schedules: u64,
    iis_tried: u64,
    placement_attempts: u64,
    ejections: u64,
    seeded: u64,
    ii_sum: u64,
    mii_sum: u64,
    sim_kernels: u64,
    cycles: u64,
    check_violations: u64,
    mdc_ddgt_violations: u64,
}

impl Counts {
    fn add_schedule(&mut self, sched: &SchedStats) {
        self.schedules += 1;
        self.iis_tried += u64::from(sched.iis_tried);
        self.placement_attempts += sched.placement_attempts;
        self.ejections += sched.ejections;
        self.seeded += u64::from(sched.seeded_at.is_some());
        self.ii_sum += u64::from(sched.ii);
        self.mii_sum += u64::from(sched.mii);
    }

    /// The counts the program's counters also give, by counter name.
    fn counter_view(&self) -> [(&'static str, u64); 6] {
        [
            ("sched_schedules_total", self.schedules),
            ("sched_iis_tried_total", self.iis_tried),
            ("sched_placement_attempts_total", self.placement_attempts),
            ("sched_ejections_total", self.ejections),
            ("sched_seeded_schedules_total", self.seeded),
            ("sim_kernels_total", self.sim_kernels),
        ]
    }
}

/// Busy time per layer of one replay.
#[derive(Default)]
struct Busy {
    profile: Duration,
    coherence: Duration,
    sched: Duration,
    check: Duration,
    sim: Duration,
}

/// Times `f` into `slot`.
fn timed<R>(slot: &mut Duration, f: impl FnOnce() -> R) -> R {
    let start = Instant::now();
    let out = f();
    *slot += start.elapsed();
    out
}

/// Replays `cells` cold, in order, layer by layer — validation,
/// profile, coherence pass, seeded schedule, check, simulate, as the
/// pipeline's compile and sim phases do — returning the counts of the
/// first `split` cells, the counts of all cells and the busy times.
fn replay(cells: &[Cell], split: usize) -> (Counts, Counts, Busy) {
    let mut counts = Counts::default();
    let mut head = Counts::default();
    let mut busy = Busy::default();
    let mut seeds: HashMap<SeedKey, u32> = HashMap::new();
    for (i, cell) in cells.iter().enumerate() {
        if i == split {
            head = counts;
        }
        let machine = cell
            .machine
            .clone()
            .with_interleave(cell.suite.interleave_bytes);
        for kernel in &cell.suite.kernels {
            kernel.validate().expect("bundled kernels are valid");
            let mut kernel = kernel.clone();
            let prefs = timed(&mut busy.profile, || {
                preferred_clusters(&kernel, machine.n_clusters, |addr| {
                    machine.home_cluster(addr)
                })
            });
            let constraints = timed(&mut busy.coherence, || match cell.solution {
                Solution::Free => SchedConstraints::none(),
                Solution::Mdc => {
                    let chains = find_chains(&kernel.ddg);
                    let prefs = (cell.heuristic == Heuristic::PrefClus).then_some(&prefs);
                    SchedConstraints::for_mdc(&chains, &kernel.ddg, prefs, machine.n_clusters)
                }
                Solution::Ddgt => {
                    SchedConstraints::for_ddgt(&transform(&mut kernel.ddg, machine.n_clusters))
                }
                Solution::Hybrid => unreachable!("hybrid rows are derived, not compiled"),
            });
            let key = SeedKey::new(&machine, &kernel.ddg, &constraints, &prefs, cell.heuristic);
            let (schedule, sched) = timed(&mut busy.sched, || {
                ModuloScheduler::new(&machine)
                    .with_ii_seed(seeds.get(&key).copied())
                    .schedule_with_stats(&kernel.ddg, &constraints, &prefs, cell.heuristic)
                    .expect("bundled kernels schedule")
            });
            seeds.insert(key, schedule.ii);
            let check = timed(&mut busy.check, || {
                check_schedule(
                    &kernel.ddg,
                    &machine,
                    &constraints,
                    cell.heuristic,
                    &schedule,
                )
            });
            let (sim, _) = timed(&mut busy.sim, || {
                simulate_kernel_detailed(&machine, &kernel, &schedule, SimOptions::default())
            });
            counts.add_schedule(&sched);
            counts.check_violations += check.len() as u64;
            counts.sim_kernels += 1;
            counts.cycles += sim.total_cycles();
            if cell.solution != Solution::Free {
                counts.mdc_ddgt_violations += sim.coherence_violations;
            }
        }
    }
    if split >= cells.len() {
        head = counts;
    }
    (head, counts, busy)
}

/// Runs `f` with the program's compute fan-out serial
/// (`DISTVLIW_THREADS=1`). Only called while this process runs no other
/// thread, since the environment is process-wide.
fn with_serial_fan_out<R>(f: impl FnOnce() -> R) -> R {
    const VAR: &str = "DISTVLIW_THREADS";
    let previous = std::env::var_os(VAR);
    std::env::set_var(VAR, "1");
    let out = f();
    match previous {
        Some(value) => std::env::set_var(VAR, value),
        None => std::env::remove_var(VAR),
    }
    out
}

/// Gates the replay's `counts` on equalling the program's counter
/// deltas between two `/stats` documents.
fn gate_counts(report: &mut Report, what: &str, counts: &Counts, before: &Json, after: &Json) {
    for (name, replayed) in counts.counter_view() {
        let served = counter(after, name) - counter(before, name);
        report.gate(served == replayed, || {
            format!("replay {what} {name} = {replayed}, the cold engine's counter {served}")
        });
    }
}

fn replay_layers(report: &mut Report, suites: &[Suite], budget: Duration) {
    let cells = cold_grid(suites);
    let split = fig7_grid(suites).len();
    let start = Instant::now();
    let mut busy = Vec::new();
    let mut first: Option<(Counts, Counts)> = None;
    while busy.len() < 3 || (start.elapsed() < budget && busy.len() < 25) {
        let (head, all, b) = replay(&cells, split);
        match first {
            None => first = Some((head, all)),
            Some(prev) => report.gate(prev == (head, all), || {
                format!(
                    "replay counts changed between repeats: {prev:?} vs {:?}",
                    (head, all)
                )
            }),
        }
        busy.push(b);
    }
    let (head, counts) = first.expect("at least one replay");
    let median = |f: fn(&Busy) -> Duration| {
        stats::median(&busy.iter().map(|b| stats::ms(f(b))).collect::<Vec<_>>())
    };
    report.metric("ir.profile_ms", median(|b| b.profile));
    report.metric("coherence.pass_ms", median(|b| b.coherence));
    report.metric("sched.schedule_ms", median(|b| b.sched));
    report.metric("check.schedule_ms", median(|b| b.check));
    let sim_ms = median(|b| b.sim);
    report.metric("sim.kernel_ms", sim_ms);
    report.metric("sched.schedules", counts.schedules as f64);
    report.metric("sched.iis_tried", counts.iis_tried as f64);
    report.metric("sched.placement_attempts", counts.placement_attempts as f64);
    report.metric("sched.ejections", counts.ejections as f64);
    report.metric("sched.seeded_schedules", counts.seeded as f64);
    report.metric(
        "sched.ii_over_mii",
        counts.ii_sum as f64 / counts.mii_sum.max(1) as f64,
    );
    report.metric("sim.kernels", counts.sim_kernels as f64);
    report.metric("sim.cycles", counts.cycles as f64);
    report.metric(
        "sim.host_ns_per_cycle",
        sim_ms * 1e6 / counts.cycles.max(1) as f64,
    );
    report.metric("check.violations", counts.check_violations as f64);
    report.metric("sim.mdc_ddgt_violations", counts.mdc_ddgt_violations as f64);
    report.note("replay_cells", cells.len() as f64, "count");
    report.note("replay_repeats", busy.len() as f64, "count");
    report.gate(counts.check_violations == 0, || {
        format!(
            "{} static checker violations in the replay",
            counts.check_violations
        )
    });
    report.gate(counts.mdc_ddgt_violations == 0, || {
        format!(
            "{} simulated MDC/DDGT violations in the replay",
            counts.mdc_ddgt_violations
        )
    });

    // The replay must account for exactly the work a cold /fig7 then
    // /sweep does.
    let (before, after_fig7, after_sweep) = with_serial_fan_out(|| {
        let server = Booted::start(None, || figure_engine(true));
        let mut conn = Client::connect(&server.addr).expect("connect");
        let before = server.stats();
        send(report, &mut conn, "/fig7", None);
        let after_fig7 = server.stats();
        send(report, &mut conn, "/sweep", None);
        (before, after_fig7, server.stats())
    });
    gate_counts(report, "/fig7", &head, &before, &after_fig7);
    gate_counts(report, "/fig7 + /sweep", &counts, &before, &after_sweep);
}

/// A bare GET for `path`, as the event loop hands it to the endpoints.
fn get_request(path: &str) -> Request {
    Request {
        method: "GET".to_string(),
        path: path.to_string(),
        query: String::new(),
        minor: 1,
        headers: Vec::new(),
        body: Vec::new(),
    }
}

/// Parses a recorded request, checking it frames completely.
fn parse_complete(bytes: &[u8]) {
    match parse_request(bytes) {
        Ok(Parse::Complete(request, used)) => {
            black_box(request);
            assert_eq!(used, bytes.len(), "recorded request frames completely");
        }
        other => panic!("recorded request did not parse: {other:?}"),
    }
}

/// Warm-path layers: a warm served engine, timed end to end over one
/// connection and in-process through `endpoints::handle`, plus the
/// pieces that path is made of.
fn warm_layers(report: &mut Report, suites: &[Suite], seed: u64) {
    let server = Booted::start(None, || figure_engine(false));
    let mut conn = Client::connect(&server.addr).expect("connect");
    let reference: Vec<Vec<u8>> = ROUTES
        .iter()
        .map(|route| send(report, &mut conn, route, None).map_or_else(Vec::new, |(r, _)| r.body))
        .collect();

    // The same seeded uniform route mix, served and in-process.
    const WARM_SAMPLES: usize = 3_000;
    let mut rng = Rng::new(seed);
    let draws: Vec<usize> = (0..WARM_SAMPLES).map(|_| rng.below(ROUTES.len())).collect();
    let mut served = Vec::with_capacity(WARM_SAMPLES);
    for &i in &draws {
        if let Some((resp, took)) = send(report, &mut conn, ROUTES[i], None) {
            report.gate(resp.body == reference[i], || {
                format!("warm {} differs from its warm-up body", ROUTES[i])
            });
            served.push(took.as_secs_f64() * 1e6);
        }
    }
    let requests: Vec<Request> = ROUTES.iter().map(|r| get_request(r)).collect();
    let mut handled = Vec::with_capacity(WARM_SAMPLES);
    for &i in &draws {
        let start = Instant::now();
        let resp = endpoints::handle(&server.engine, &requests[i]);
        handled.push(start.elapsed().as_secs_f64() * 1e6);
        report.gate(resp.status == 200 && resp.body == reference[i], || {
            format!("in-process {} differs from the served body", ROUTES[i])
        });
    }
    if served.is_empty() {
        report.fail("no successful warm served request");
        served.push(f64::NAN);
    }
    let handle_us = stats::median(&handled);
    report.metric("serve.handle_us", handle_us);
    report.metric("serve.conn_overhead_us", stats::median(&served) - handle_us);

    let fig7_text = String::from_utf8(reference[1].clone()).unwrap_or_default();
    let fig7_json = parse_json(&reference[1]).unwrap_or(Json::Null);
    report.metric(
        "serve.json_render_us",
        ns_per_call(50, 20, || drop(black_box(fig7_json.render()))) / 1e3,
    );
    let response = Response::json(200, fig7_text);
    report.metric(
        "serve.response_render_us",
        ns_per_call(50, 20, || {
            drop(black_box(render_response(&response, false)))
        }) / 1e3,
    );
    let get = b"GET /fig7 HTTP/1.1\r\nhost: 127.0.0.1:7411\r\ncontent-length: 0\r\n\r\n";
    report.metric(
        "serve.http_parse_ns",
        ns_per_call(100, 1_000, || parse_complete(get)),
    );

    // Key derivation and cache hits over the /fig7 grid.
    let options = PipelineOptions::default();
    let grid = fig7_grid(suites);
    let fingerprints: Vec<[u8; 16]> = grid
        .iter()
        .map(|c| digest_fingerprint(&suite_digest(c.suite)))
        .collect();
    let key_of = |i: usize| {
        let c = &grid[i];
        cell_key_from_fingerprint(
            &fingerprints[i],
            &c.machine,
            &options,
            c.solution,
            c.heuristic,
        )
    };
    let mut next = 0;
    report.metric(
        "core.cell_key_ns",
        ns_per_call(100, 650, || {
            black_box(key_of(next % grid.len()));
            next += 1;
        }),
    );
    let keys: Vec<_> = (0..grid.len()).map(key_of).collect();
    let mut cache: ResultCache<CellResult> = ResultCache::new(FIGURE_CACHE);
    for key in &keys {
        cache.insert(key.clone(), dummy_cell());
    }
    let mut next = 0;
    report.metric(
        "serve.cache_get_ns",
        ns_per_call(100, 650, || {
            black_box(cache.get(&keys[next % keys.len()]).expect("hit"));
            next += 1;
        }),
    );
    let items: Vec<u64> = (0..grid.len() as u64).collect();
    report.metric(
        "core.par_map_us",
        ns_per_call(100, 5, || drop(black_box(par::par_map(&items, |x| *x)))) / 1e3,
    );
}

/// A cache value: the cache clones the `Arc`, whatever it holds.
fn dummy_cell() -> CellResult {
    Arc::new(Err(PipelineError::Kernel {
        kernel: String::new(),
        error: String::new(),
    }))
}

/// Write-path layers: a fixed-length churn stream for exact `/stats`
/// deltas, then the cache-insert and persistence pieces it exercises.
fn churn_layers(report: &mut Report, seed: u64) {
    let pool = matrix_pool();
    let capacity = churn_capacity(&pool);
    {
        let server = Booted::start(Some(state_dir("trace")), || churn_engine(&pool));
        let mut rng = Rng::new(seed);
        let mut conn = Client::connect(&server.addr).expect("connect");
        if let Some(reference) = matrix_warmup(report, &mut conn, &pool, &mut rng) {
            let before = server.stats();
            for _ in 0..CHURN_TRACE_REQUESTS {
                let i = rng.below(pool.len());
                if matrix_request(report, &mut conn, &pool, &reference, i).is_none() {
                    break;
                }
            }
            let after = server.stats();
            for (name, value) in churn_deltas(&before, &after) {
                report.metric(name, value);
            }
        }
    }

    let post = format!(
        "POST /matrix HTTP/1.1\r\nhost: 127.0.0.1:7411\r\ncontent-length: {}\r\n\r\n{}",
        pool[0].len(),
        pool[0]
    );
    report.metric(
        "serve.http_parse_post_ns",
        ns_per_call(100, 1_000, || parse_complete(post.as_bytes())),
    );

    // Inserts into a full cache, each evicting the LRU entry.
    let paper = MachineConfig::paper_baseline();
    let options = PipelineOptions::default();
    let key = |i: u128| {
        cell_key_from_fingerprint(
            &i.to_le_bytes(),
            &paper,
            &options,
            Solution::Mdc,
            Heuristic::PrefClus,
        )
    };
    let fresh: Vec<_> = (0..100_000u128)
        .map(|i| key(i + capacity as u128))
        .collect();
    let mut cache: ResultCache<CellResult> = ResultCache::new(capacity);
    for i in 0..capacity as u128 {
        cache.insert(key(i), dummy_cell());
    }
    let mut next = 0;
    report.metric(
        "serve.cache_insert_ns",
        ns_per_call(100, 1_000, || {
            black_box(cache.insert(fresh[next].clone(), dummy_cell()));
            next += 1;
        }),
    );

    // Persistence of real cell values.
    let pipeline = Pipeline::new(paper.clone());
    let values: Vec<_> = ["gsmdec", "jpegenc", "rasta"]
        .iter()
        .map(|name| {
            let suite = distvliw_mediabench::suite(name).expect("bundled suite");
            pipeline
                .run_suite(&suite, Solution::Mdc, Heuristic::PrefClus)
                .expect("bundled suite runs")
        })
        .collect();
    let mut next = 0;
    report.metric(
        "serve.persist_encode_us",
        ns_per_call(100, 30, || {
            black_box(persist::suite_stats_bytes(&values[next % values.len()]));
            next += 1;
        }) / 1e3,
    );
    let encoded: Vec<Vec<u8>> = values.iter().map(persist::suite_stats_bytes).collect();
    let dir = state_dir("persist");
    std::fs::create_dir_all(&dir).expect("create the persist dir");
    let (mut log, _, _) = persist::LogWriter::open(
        dir.join("cells.log"),
        persist::KIND_CELLS,
        &persist::era_bytes(),
    )
    .expect("open a cell log");
    let keys: Vec<_> = (0..capacity as u128).map(key).collect();
    let mut next = 0;
    report.metric(
        "serve.persist_append_us",
        ns_per_call(40, 10, || {
            let i = next % keys.len();
            log.append(keys[i].bytes(), &encoded[i % encoded.len()])
                .expect("append");
            next += 1;
        }) / 1e3,
    );
    let snapshot = || {
        keys.iter()
            .enumerate()
            .map(|(i, k)| (k.bytes(), encoded[i % encoded.len()].clone()))
    };
    report.metric(
        "serve.persist_compact_ms",
        ns_per_call(15, 1, || log.rewrite(snapshot()).expect("rewrite")) / 1e6,
    );
    drop(log);
    let _ = std::fs::remove_dir_all(&dir);
}
