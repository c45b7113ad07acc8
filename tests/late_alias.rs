//! A store and a load that alias only late in the trip
//! (`traces/late_alias.trace`: the same word in the same iteration on
//! iterations 128–255 of 256). Dependence discovery decides overlap over
//! the whole trip, so the pair gets its edge, MDC colocates it, and the
//! independent checker finds every schedule clean.

use distvliw::arch::MachineConfig;
use distvliw::core::{Heuristic, Pipeline, PipelineOptions, Solution};
use distvliw::ir::DepKind;
use distvliw::mediabench::trace;

#[test]
fn a_late_alias_gets_its_edge_and_mdc_colocates_the_pair() {
    let path = format!("{}/traces/late_alias.trace", env!("CARGO_MANIFEST_DIR"));
    let suite = trace::load(path)
        .expect("committed trace parses")
        .to_suite();
    let kernel = &suite.kernels[0];
    let store = kernel.ddg.stores().next().expect("one store");
    let load = kernel.ddg.loads().next().expect("one load");
    let edges: Vec<_> = kernel
        .ddg
        .mem_dep_edges()
        .map(|(_, d)| (d.src, d.dst, d.kind, d.distance))
        .collect();
    assert_eq!(edges, [(store, load, DepKind::MemFlow, 0)]);

    let pipeline = Pipeline::new(MachineConfig::paper_baseline()).with_options(PipelineOptions {
        check: true,
        ..PipelineOptions::default()
    });
    for solution in [Solution::Free, Solution::Mdc, Solution::Ddgt] {
        for heuristic in [Heuristic::PrefClus, Heuristic::MinComs] {
            // `check: true` fails the compile on any checker violation.
            let artifact = pipeline
                .compile_suite(&suite, solution, heuristic)
                .unwrap_or_else(|e| panic!("{solution}/{heuristic:?}: {e}"));
            let schedule = artifact.kernels[0].schedule();
            if solution == Solution::Mdc {
                assert_eq!(
                    schedule.op(store).cluster,
                    schedule.op(load).cluster,
                    "MDC must colocate the aliasing pair ({heuristic:?})"
                );
            }
            if solution != Solution::Free {
                let stats = pipeline.simulate_artifact(&artifact);
                assert_eq!(
                    stats.total.coherence_violations, 0,
                    "{solution}/{heuristic:?}"
                );
            }
        }
    }
}
