//! Which failure a run reports: a suite stops at its first failing
//! kernel, and a grid of cells reports its first failing cell in cell
//! (or row) order — never whichever cell a worker thread finished first.

use distvliw::arch::{BusConfig, MachineConfig};
use distvliw::core::experiments::{per_suite_cells, run_direct, sweep, SweepSpec};
use distvliw::core::{Heuristic, Pipeline, PipelineError, Solution};
use distvliw::ir::Suite;

/// A three-kernel suite whose 2nd and 3rd kernels fail
/// `LoopKernel::validate` (zero trip count). Kernel names carry the
/// suite name, so an error says which suite it came from.
fn failing_suite(name: &str) -> Suite {
    let base = distvliw::mediabench::suite("gsmdec").unwrap();
    let mut suite = Suite::new(name, base.interleave_bytes);
    for i in 0..3 {
        let mut kernel = base.kernels[i.min(base.kernels.len() - 1)].clone();
        kernel.name = format!("{name}.k{i}");
        if i > 0 {
            kernel.trip_count = 0;
        }
        suite.kernels.push(kernel);
    }
    suite
}

/// The error a [`failing_suite`]'s 2nd kernel reports.
fn second_kernel_error(suite: &Suite) -> PipelineError {
    let kernel = &suite.kernels[1];
    PipelineError::Kernel {
        kernel: kernel.name.clone(),
        error: kernel.validate().unwrap_err().to_string(),
    }
}

#[test]
fn run_suite_and_compile_suite_report_the_first_failing_kernel() {
    let suite = failing_suite("bad");
    let pipeline = Pipeline::new(MachineConfig::paper_baseline());
    for solution in [Solution::Free, Solution::Mdc, Solution::Ddgt] {
        let err = pipeline
            .run_suite(&suite, solution, Heuristic::PrefClus)
            .unwrap_err();
        assert_eq!(err, second_kernel_error(&suite), "run_suite {solution}");
        let err = pipeline
            .compile_suite(&suite, solution, Heuristic::PrefClus)
            .unwrap_err();
        assert_eq!(err, second_kernel_error(&suite), "compile_suite {solution}");
    }
}

#[test]
fn run_direct_reports_the_first_failing_cell() {
    let suites = [failing_suite("first"), failing_suite("second")];
    let machine = MachineConfig::paper_baseline();
    let cells = per_suite_cells(
        &machine,
        &suites.iter().collect::<Vec<_>>(),
        &[(Solution::Mdc, Heuristic::PrefClus)],
    );
    let err = run_direct(&cells).unwrap_err();
    assert_eq!(
        err,
        PipelineError::Cell {
            n_clusters: machine.n_clusters,
            mem_buses: machine.mem_buses,
            solution: Solution::Mdc,
            heuristic: Heuristic::PrefClus,
            suite: "first".into(),
            source: Box::new(second_kernel_error(&suites[0])),
        }
    );
}

#[test]
fn sweep_reports_the_first_failing_cell_in_row_order() {
    // The good suite fills the first cell of every grid point, and
    // `run_direct` compiles the largest cluster count first: the
    // reported cell is still the first failing one in row order.
    let good = distvliw::mediabench::suite("gsmdec").unwrap();
    let suites = [good, failing_suite("first"), failing_suite("second")];
    let bus = BusConfig {
        count: 4,
        latency: 2,
    };
    let spec = SweepSpec {
        cluster_counts: vec![2, 4],
        mem_buses: vec![bus],
        heuristic: Heuristic::PrefClus,
    };
    let err = sweep(&MachineConfig::paper_baseline(), &suites, &spec).unwrap_err();
    assert_eq!(
        err,
        PipelineError::Cell {
            n_clusters: 2,
            mem_buses: bus,
            solution: Solution::Free,
            heuristic: Heuristic::PrefClus,
            suite: "first".into(),
            source: Box::new(second_kernel_error(&suites[1])),
        }
    );
}
