//! Scheduler / pipeline timing harness: runs the hot-path benchmarks and
//! writes a `BENCH_sched.json` summary so successive revisions have a
//! perf trajectory.
//!
//! Usage:
//!
//! ```text
//! cargo run --release -p distvliw-bench --bin bench [-- OUT.json]
//! ```
//!
//! The output path defaults to `BENCH_sched.json` in the current
//! directory. Compare against a previous run with any JSON diff; the
//! committed `BENCH_sched.baseline.json` holds the timings of the first
//! green build of the seed scheduler (before the dense-map /
//! transactional-MRT rewrite).

use std::time::Instant;

use distvliw_arch::MachineConfig;
use distvliw_bench::{results_json, BenchResult};
use distvliw_coherence::{find_chains, transform, SchedConstraints};
use distvliw_core::experiments::{
    sweep, sweep_default_suites, sweep_machine, sweep_naive, SweepSpec,
};
use distvliw_core::{Heuristic, Pipeline, Solution};
use distvliw_ir::profile::preferred_clusters;
use distvliw_mediabench::eject_stress_kernel;
use distvliw_sched::ModuloScheduler;
use distvliw_sim::{simulate_kernel, SimOptions};

/// Times `f` with calibration: grows the batch until one sample lasts
/// ≥ 2 ms, then reports the median of `samples` batches.
fn time_median<F: FnMut()>(id: &str, samples: usize, mut f: F) -> BenchResult {
    let mut iters: u64 = 1;
    loop {
        let t = Instant::now();
        for _ in 0..iters {
            f();
        }
        if t.elapsed().as_nanos() >= 2_000_000 || iters >= 1 << 20 {
            break;
        }
        iters *= 2;
    }
    let mut per_iter: Vec<f64> = (0..samples)
        .map(|_| {
            let t = Instant::now();
            for _ in 0..iters {
                f();
            }
            t.elapsed().as_nanos() as f64 / iters as f64
        })
        .collect();
    per_iter.sort_by(|a, b| a.partial_cmp(b).expect("finite timings"));
    let median_ns = per_iter[per_iter.len() / 2];
    println!("{id}: {:.3} ms/iter", median_ns / 1e6);
    BenchResult {
        id: id.to_string(),
        median_ns,
        iters_per_sample: iters,
        samples,
    }
}

fn main() {
    let out = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "BENCH_sched.json".to_string());
    // Fail before spending a minute benchmarking if the output path is
    // unwritable.
    if let Err(e) = std::fs::write(&out, "[]\n") {
        eprintln!("cannot write {out}: {e}");
        std::process::exit(1);
    }
    let mut results: Vec<BenchResult> = Vec::new();

    // Scheduler hot path: Free/MDC/DDGT on the first kernel of each
    // suite.
    for bench in ["gsmdec", "epicdec"] {
        let suite = distvliw_mediabench::suite(bench).expect("bundled benchmark");
        let m = MachineConfig::paper_baseline().with_interleave(suite.interleave_bytes);
        let kernel = &suite.kernels[0];
        let prefs = preferred_clusters(kernel, m.n_clusters, |a| m.home_cluster(a));

        let free = SchedConstraints::none();
        results.push(time_median(&format!("scheduler/{bench}/free"), 10, || {
            let s = ModuloScheduler::new(&m)
                .schedule(&kernel.ddg, &free, &prefs, Heuristic::MinComs)
                .unwrap();
            std::hint::black_box(s);
        }));

        let chains = find_chains(&kernel.ddg);
        let mdc = SchedConstraints::for_mdc(&chains, &kernel.ddg, Some(&prefs), m.n_clusters);
        results.push(time_median(&format!("scheduler/{bench}/mdc"), 10, || {
            let s = ModuloScheduler::new(&m)
                .schedule(&kernel.ddg, &mdc, &prefs, Heuristic::PrefClus)
                .unwrap();
            std::hint::black_box(s);
        }));

        let mut ddgt_kernel = kernel.clone();
        let report = transform(&mut ddgt_kernel.ddg, m.n_clusters);
        let ddgt = SchedConstraints::for_ddgt(&report);
        results.push(time_median(&format!("scheduler/{bench}/ddgt"), 10, || {
            let s = ModuloScheduler::new(&m)
                .schedule(&ddgt_kernel.ddg, &ddgt, &prefs, Heuristic::PrefClus)
                .unwrap();
            std::hint::black_box(s);
        }));
    }

    // Ejection scheduler: adversarial MDC-pinned chains at 8/16
    // clusters (docs/scheduling.md). The timing rows pin the cost of an
    // ejection-heavy search; the `ejections/*` rows record the raw
    // ejection counts so perfcheck can report (never fail on) the
    // trajectory.
    for n_clusters in [8usize, 16] {
        let base = MachineConfig::paper_baseline();
        let machine = sweep_machine(&base, n_clusters, base.mem_buses);
        let (kernel, prefs) = eject_stress_kernel(n_clusters, n_clusters);
        let chains = find_chains(&kernel.ddg);
        let constraints = SchedConstraints::for_mdc(&chains, &kernel.ddg, Some(&prefs), n_clusters);
        results.push(time_median(
            &format!("sched/eject/stress{n_clusters}"),
            10,
            || {
                let s = ModuloScheduler::new(&machine)
                    .schedule(&kernel.ddg, &constraints, &prefs, Heuristic::PrefClus)
                    .unwrap();
                std::hint::black_box(s);
            },
        ));
        let (schedule, stats) = ModuloScheduler::new(&machine)
            .schedule_with_stats(&kernel.ddg, &constraints, &prefs, Heuristic::PrefClus)
            .unwrap();
        let (restart, restart_stats) = ModuloScheduler::new(&machine)
            .with_ejection(false)
            .schedule_with_stats(&kernel.ddg, &constraints, &prefs, Heuristic::PrefClus)
            .unwrap();
        println!(
            "sched/eject/stress{n_clusters}: II {} in {} attempts ({} ejections) vs restart-only II {} in {} attempts",
            schedule.ii,
            stats.placement_attempts,
            stats.ejections,
            restart.ii,
            restart_stats.placement_attempts,
        );
        results.push(BenchResult {
            id: format!("ejections/stress{n_clusters}"),
            median_ns: stats.ejections as f64,
            iters_per_sample: 1,
            samples: 1,
        });
    }
    // Suite-level ejection counts for the paper kernels (count rows,
    // not timings — reported by perfcheck, never gated).
    for bench in ["gsmdec", "epicdec"] {
        let suite = distvliw_mediabench::suite(bench).expect("bundled benchmark");
        let pipeline = Pipeline::new(MachineConfig::paper_baseline());
        for solution in [Solution::Mdc, Solution::Ddgt] {
            let stats = pipeline
                .run_suite(&suite, solution, Heuristic::PrefClus)
                .unwrap();
            results.push(BenchResult {
                id: format!("ejections/{bench}_{}", solution.to_string().to_lowercase()),
                median_ns: stats.sched.ejections as f64,
                iters_per_sample: 1,
                samples: 1,
            });
        }
    }

    // Simulator hot path: one fixed schedule simulated end to end
    // (dense event queue + batched address streams; see docs/sim.md).
    for bench in ["gsmdec", "epicdec"] {
        let suite = distvliw_mediabench::suite(bench).expect("bundled benchmark");
        let m = MachineConfig::paper_baseline().with_interleave(suite.interleave_bytes);
        let kernel = &suite.kernels[0];
        let prefs = preferred_clusters(kernel, m.n_clusters, |a| m.home_cluster(a));
        let chains = find_chains(&kernel.ddg);
        let mdc = SchedConstraints::for_mdc(&chains, &kernel.ddg, Some(&prefs), m.n_clusters);
        let schedule = ModuloScheduler::new(&m)
            .schedule(&kernel.ddg, &mdc, &prefs, Heuristic::PrefClus)
            .unwrap();
        results.push(time_median(&format!("sim/{bench}/mdc"), 10, || {
            let stats = simulate_kernel(&m, kernel, &schedule, SimOptions::default());
            std::hint::black_box(stats);
        }));
    }

    // Pipeline fan-out: full suites end to end (kernels run in
    // parallel; set DISTVLIW_THREADS=1 for the serial reference).
    let pipeline = Pipeline::new(MachineConfig::paper_baseline());
    for (bench, samples) in [("gsmdec", 5), ("epicdec", 3)] {
        let suite = distvliw_mediabench::suite(bench).expect("bundled benchmark");
        results.push(time_median(
            &format!("pipeline/{bench}/mdc_prefclus"),
            samples,
            || {
                let stats = pipeline
                    .run_suite(&suite, Solution::Mdc, Heuristic::PrefClus)
                    .unwrap();
                std::hint::black_box(stats);
            },
        ));
    }

    // Sweep grid: the default cluster×bus grid through the naive
    // per-cell path (every cell compiles and simulates from cold) and
    // the factored schedule-once/sim-many path. Both legs run
    // back-to-back in the same process, so perfcheck's same-run
    // `naive/factored` speedup gate is immune to machine drift between
    // bench runs; each id is also regression-gated against the baseline
    // like any other timing.
    {
        let base = MachineConfig::paper_baseline();
        let suites = sweep_default_suites();
        let spec = SweepSpec::default();
        results.push(time_median("sweep/default/naive", 5, || {
            let rows = sweep_naive(&base, &suites, &spec).unwrap();
            std::hint::black_box(rows);
        }));
        results.push(time_median("sweep/default/factored", 5, || {
            let run = sweep(&base, &suites, &spec).unwrap();
            std::hint::black_box(run);
        }));
    }

    std::fs::write(&out, results_json(&results)).expect("write bench json");
    println!("wrote {out}");
}
