//! Shape-level regression tests against the paper's evaluation claims.
//! Absolute numbers differ (our substrate is a synthetic simulator, not
//! the authors' IMPACT testbed); what must hold is *who wins, by roughly
//! what factor, and where the crossovers fall*.

use distvliw::arch::{AttractionBufferConfig, MachineConfig};
use distvliw::coherence::{chain_stats, specialize_kernel};
use distvliw::core::experiments::{sweep_default_suites, sweep_machine};
use distvliw::core::{Heuristic, Pipeline, PipelineOptions, Solution};

/// Benchmarks with large chains, where the solutions differ most.
const CHAINED: [&str; 3] = ["epicdec", "pgpdec", "rasta"];

/// Per-kernel initiation intervals the *seed* (restart-only) scheduler
/// achieved on the gsmdec + recorded-trace mix across the sweep's
/// cluster axis, recorded immediately before the ejection scheduler
/// landed. One line per `(suite, clusters, solution, heuristic)` cell.
const SEED_IIS: &[&str] = &[
    "gsmdec 2 Free PrefClus 15,25",
    "gsmdec 2 Free MinComs 15,25",
    "gsmdec 2 MDC PrefClus 17,25",
    "gsmdec 2 MDC MinComs 17,25",
    "gsmdec 2 DDGT PrefClus 15,25",
    "gsmdec 2 DDGT MinComs 15,25",
    "gsmdec 4 Free PrefClus 11,13",
    "gsmdec 4 Free MinComs 11,13",
    "gsmdec 4 MDC PrefClus 8,13",
    "gsmdec 4 MDC MinComs 8,13",
    "gsmdec 4 DDGT PrefClus 12,13",
    "gsmdec 4 DDGT MinComs 12,13",
    "gsmdec 8 Free PrefClus 9,7",
    "gsmdec 8 Free MinComs 9,7",
    "gsmdec 8 MDC PrefClus 8,7",
    "gsmdec 8 MDC MinComs 8,7",
    "gsmdec 8 DDGT PrefClus 20,7",
    "gsmdec 8 DDGT MinComs 20,7",
    "gsmdec 16 Free PrefClus 11,4",
    "gsmdec 16 Free MinComs 11,4",
    "gsmdec 16 MDC PrefClus 8,4",
    "gsmdec 16 MDC MinComs 8,4",
    "gsmdec 16 DDGT PrefClus 36,4",
    "gsmdec 16 DDGT MinComs 36,4",
    "fir8 2 Free PrefClus 9,6",
    "fir8 2 Free MinComs 9,6",
    "fir8 2 MDC PrefClus 10,6",
    "fir8 2 MDC MinComs 9,6",
    "fir8 2 DDGT PrefClus 11,6",
    "fir8 2 DDGT MinComs 11,6",
    "fir8 4 Free PrefClus 5,3",
    "fir8 4 Free MinComs 5,3",
    "fir8 4 MDC PrefClus 7,3",
    "fir8 4 MDC MinComs 6,3",
    "fir8 4 DDGT PrefClus 6,3",
    "fir8 4 DDGT MinComs 6,3",
    "fir8 8 Free PrefClus 5,3",
    "fir8 8 Free MinComs 5,2",
    "fir8 8 MDC PrefClus 7,3",
    "fir8 8 MDC MinComs 6,2",
    "fir8 8 DDGT PrefClus 7,3",
    "fir8 8 DDGT MinComs 7,2",
    "fir8 16 Free PrefClus 5,3",
    "fir8 16 Free MinComs 5,2",
    "fir8 16 MDC PrefClus 7,3",
    "fir8 16 MDC MinComs 6,2",
    "fir8 16 DDGT PrefClus 11,3",
    "fir8 16 DDGT MinComs 11,2",
    "ptrchase 2 Free PrefClus 5",
    "ptrchase 2 Free MinComs 5",
    "ptrchase 2 MDC PrefClus 5",
    "ptrchase 2 MDC MinComs 5",
    "ptrchase 2 DDGT PrefClus 6",
    "ptrchase 2 DDGT MinComs 6",
    "ptrchase 4 Free PrefClus 3",
    "ptrchase 4 Free MinComs 3",
    "ptrchase 4 MDC PrefClus 3",
    "ptrchase 4 MDC MinComs 3",
    "ptrchase 4 DDGT PrefClus 3",
    "ptrchase 4 DDGT MinComs 3",
    "ptrchase 8 Free PrefClus 3",
    "ptrchase 8 Free MinComs 3",
    "ptrchase 8 MDC PrefClus 3",
    "ptrchase 8 MDC MinComs 3",
    "ptrchase 8 DDGT PrefClus 4",
    "ptrchase 8 DDGT MinComs 4",
    "ptrchase 16 Free PrefClus 3",
    "ptrchase 16 Free MinComs 3",
    "ptrchase 16 MDC PrefClus 3",
    "ptrchase 16 MDC MinComs 3",
    "ptrchase 16 DDGT PrefClus 8",
    "ptrchase 16 DDGT MinComs 8",
];

#[test]
fn ejection_scheduler_never_regresses_an_ii() {
    // ISSUE 5 acceptance: on the gsmdec + trace mix across 2/4/8/16
    // clusters, no (suite, solution, heuristic) cell may schedule at a
    // higher II than the seed scheduler did, at least one MDC/DDGT cell
    // must be *strictly* better, and ejection counts must surface in
    // the per-kernel scheduler stats. The checker verifies every
    // schedule, in release builds too.
    let base = MachineConfig::paper_baseline();
    let mut seed: std::collections::BTreeMap<String, Vec<u32>> = std::collections::BTreeMap::new();
    for line in SEED_IIS {
        let mut parts = line.split(' ');
        let key = format!(
            "{} {} {} {}",
            parts.next().unwrap(),
            parts.next().unwrap(),
            parts.next().unwrap(),
            parts.next().unwrap()
        );
        let iis = parts
            .next()
            .unwrap()
            .split(',')
            .map(|s| s.parse().unwrap())
            .collect();
        seed.insert(key, iis);
    }
    let mut checked = 0usize;
    let mut strictly_better = 0usize;
    let mut constrained_better = 0usize;
    let mut ejections = 0u64;
    for suite in sweep_default_suites() {
        for n_clusters in [2usize, 4, 8, 16] {
            let machine = sweep_machine(&base, n_clusters, base.mem_buses);
            let pipeline = Pipeline::new(machine).with_options(PipelineOptions {
                check: true,
                ..PipelineOptions::default()
            });
            for solution in [Solution::Free, Solution::Mdc, Solution::Ddgt] {
                for heuristic in [Heuristic::PrefClus, Heuristic::MinComs] {
                    let stats = pipeline.run_suite(&suite, solution, heuristic).unwrap();
                    let key = format!("{} {n_clusters} {solution} {heuristic}", suite.name);
                    let want = &seed[&key];
                    assert_eq!(stats.kernels.len(), want.len(), "{key}");
                    for (kernel, &seed_ii) in stats.kernels.iter().zip(want) {
                        assert!(
                            kernel.ii <= seed_ii,
                            "{key} kernel {}: II regressed {} > seed {}",
                            kernel.name,
                            kernel.ii,
                            seed_ii
                        );
                        checked += 1;
                        if kernel.ii < seed_ii {
                            strictly_better += 1;
                            if solution != Solution::Free {
                                constrained_better += 1;
                            }
                        }
                        ejections += kernel.sched.ejections;
                    }
                }
            }
        }
    }
    assert_eq!(checked, 120, "every seed cell was re-scheduled");
    assert!(
        constrained_better > 0,
        "at least one MDC/DDGT cell must schedule strictly lower than seed \
         ({strictly_better} cells improved overall)"
    );
    assert!(
        ejections > 0,
        "the improvements must be visible in the surfaced ejection counts"
    );
}

#[test]
fn ddgt_raises_local_hit_ratio_over_mdc() {
    // Paper Section 4.2: "the local hit ratio is increased by 15% with
    // DDGT compared to the MDC solution" (PrefClus).
    let p = Pipeline::new(MachineConfig::paper_baseline());
    let mut mdc_sum = 0.0;
    let mut ddgt_sum = 0.0;
    for name in CHAINED {
        let suite = distvliw::mediabench::suite(name).unwrap();
        mdc_sum += p
            .run_suite(&suite, Solution::Mdc, Heuristic::PrefClus)
            .unwrap()
            .local_hit_ratio();
        ddgt_sum += p
            .run_suite(&suite, Solution::Ddgt, Heuristic::PrefClus)
            .unwrap()
            .local_hit_ratio();
    }
    assert!(
        ddgt_sum > mdc_sum * 1.10,
        "DDGT must clearly raise local hits: {ddgt_sum:.3} vs {mdc_sum:.3}"
    );
}

#[test]
fn ddgt_cuts_stall_and_raises_compute() {
    // Paper abstract: "stall time is reduced by 32% ... the DDGT solution
    // increases compute time (+11%)" for PrefClus.
    let p = Pipeline::new(MachineConfig::paper_baseline());
    let mut mdc = (0u64, 0u64); // (compute, stall)
    let mut ddgt = (0u64, 0u64);
    for name in CHAINED {
        let suite = distvliw::mediabench::suite(name).unwrap();
        let m = p
            .run_suite(&suite, Solution::Mdc, Heuristic::PrefClus)
            .unwrap();
        let d = p
            .run_suite(&suite, Solution::Ddgt, Heuristic::PrefClus)
            .unwrap();
        mdc.0 += m.total.compute_cycles;
        mdc.1 += m.total.stall_cycles;
        ddgt.0 += d.total.compute_cycles;
        ddgt.1 += d.total.stall_cycles;
    }
    assert!(
        ddgt.1 < mdc.1,
        "DDGT stall {} must undercut MDC stall {}",
        ddgt.1,
        mdc.1
    );
    assert!(
        ddgt.0 > mdc.0,
        "DDGT compute {} must exceed MDC compute {}",
        ddgt.0,
        mdc.0
    );
}

#[test]
fn free_baseline_violates_on_chained_benchmarks() {
    // The optimistic baseline is "not real": on alias-heavy loops it
    // reads stale data.
    let p = Pipeline::new(MachineConfig::paper_baseline());
    let mut total = 0;
    for name in CHAINED {
        let suite = distvliw::mediabench::suite(name).unwrap();
        total += p
            .run_suite(&suite, Solution::Free, Heuristic::MinComs)
            .unwrap()
            .total
            .coherence_violations;
    }
    assert!(
        total > 0,
        "the Free baseline must exhibit stale reads somewhere"
    );
}

#[test]
fn specialization_reproduces_table5_direction() {
    // Paper Table 5: code specialization slashes CMR/CAR for epicdec,
    // pgpdec and rasta.
    for (name, new_cmr_paper) in [("epicdec", 0.20), ("pgpdec", 0.52), ("rasta", 0.13)] {
        let suite = distvliw::mediabench::suite(name).unwrap();
        let old = chain_stats(suite.kernels.iter());
        let specialized: Vec<_> = suite
            .kernels
            .iter()
            .map(|k| specialize_kernel(k).0)
            .collect();
        let new = chain_stats(specialized.iter());
        assert!(
            new.cmr < old.cmr,
            "{name}: {:.2} !< {:.2}",
            new.cmr,
            old.cmr
        );
        assert!(
            (new.cmr - new_cmr_paper).abs() < 0.10,
            "{name}: new CMR {:.2} vs paper {new_cmr_paper:.2}",
            new.cmr
        );
    }
}

#[test]
fn attraction_buffers_flip_epicdec_to_ddgt() {
    // Paper Section 5.4: with Attraction Buffers MDC wins everywhere
    // except epicdec, whose 76-op chain overflows a single buffer under
    // MDC while DDGT spreads it across all four.
    let machine =
        MachineConfig::paper_baseline().with_attraction_buffers(AttractionBufferConfig::paper());
    let suite = distvliw::mediabench::suite("epicdec").unwrap();
    let p = Pipeline::new(machine.with_interleave(suite.interleave_bytes));
    let chained = &suite.kernels[0];
    let mdc = p
        .run_kernel(chained, Solution::Mdc, Heuristic::PrefClus)
        .unwrap();
    let ddgt = p
        .run_kernel(chained, Solution::Ddgt, Heuristic::PrefClus)
        .unwrap();
    assert!(
        ddgt.stats.total_cycles() < mdc.stats.total_cycles(),
        "DDGT must win the epicdec AB loop: {} vs {}",
        ddgt.stats.total_cycles(),
        mdc.stats.total_cycles()
    );
    assert!(
        ddgt.stats.local_hit_ratio() > 0.90,
        "DDGT local hits must approach the paper's 97%: {:.3}",
        ddgt.stats.local_hit_ratio()
    );
    assert!(ddgt.stats.local_hit_ratio() > mdc.stats.local_hit_ratio() + 0.15);
}

#[test]
fn nobal_mem_overloads_ddgt_register_buses() {
    // Paper Section 4.2: "For the NOBAL+MEM configuration, the MDC
    // solution always outperforms the DDGT solution".
    let p = Pipeline::new(MachineConfig::nobal_mem());
    for name in CHAINED {
        let suite = distvliw::mediabench::suite(name).unwrap();
        let mdc = p
            .run_suite(&suite, Solution::Mdc, Heuristic::PrefClus)
            .unwrap();
        let ddgt = p
            .run_suite(&suite, Solution::Ddgt, Heuristic::PrefClus)
            .unwrap();
        assert!(
            mdc.total_cycles() < ddgt.total_cycles(),
            "{name}: MDC {} must beat DDGT {} under NOBAL+MEM",
            mdc.total_cycles(),
            ddgt.total_cycles()
        );
    }
}

#[test]
fn nobal_reg_favors_ddgt_on_big_chains() {
    // Paper Section 4.2: under NOBAL+REG, DDGT(PrefClus) wins epicdec,
    // pgpdec, pgpenc and rasta.
    let p = Pipeline::new(MachineConfig::nobal_reg());
    for name in ["epicdec", "pgpdec", "pgpenc", "rasta"] {
        let suite = distvliw::mediabench::suite(name).unwrap();
        let mdc_pref = p
            .run_suite(&suite, Solution::Mdc, Heuristic::PrefClus)
            .unwrap();
        let mdc_min = p
            .run_suite(&suite, Solution::Mdc, Heuristic::MinComs)
            .unwrap();
        let ddgt = p
            .run_suite(&suite, Solution::Ddgt, Heuristic::PrefClus)
            .unwrap();
        let best_mdc = mdc_pref.total_cycles().min(mdc_min.total_cycles());
        assert!(
            ddgt.total_cycles() < best_mdc,
            "{name}: DDGT {} must beat best MDC {} under NOBAL+REG",
            ddgt.total_cycles(),
            best_mdc
        );
    }
}

#[test]
fn g721_chains_are_empty_so_solutions_coincide() {
    // Paper Table 3: g721dec/enc have CMR = CAR = 0; with no chains MDC
    // degenerates to the free schedule.
    let p = Pipeline::new(MachineConfig::paper_baseline());
    let suite = distvliw::mediabench::suite("g721dec").unwrap();
    let free = p
        .run_suite(&suite, Solution::Free, Heuristic::PrefClus)
        .unwrap();
    let mdc = p
        .run_suite(&suite, Solution::Mdc, Heuristic::PrefClus)
        .unwrap();
    assert_eq!(free.total, mdc.total, "no chains => identical schedules");
}
