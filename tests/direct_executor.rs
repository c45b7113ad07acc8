//! The direct executor's contract: `run_direct` compiles each distinct
//! compile unit — suite, solution, heuristic and scheduler projection —
//! exactly once, and every cell's statistics equal a cold
//! `Pipeline::run_suite` of that cell on its own machine.

use std::collections::HashSet;

use distvliw::arch::{AttractionBufferConfig, BusConfig, MachineConfig};
use distvliw::core::experiments::{run_direct, Cell};
use distvliw::core::{Heuristic, Pipeline, Solution};

#[test]
fn run_direct_compiles_each_unit_once_and_matches_cold_runs() {
    let suite = distvliw::mediabench::suite("gsmdec").unwrap();
    let base = MachineConfig::paper_baseline();
    // Sim-only variants: fewer memory buses, and Attraction Buffers.
    let fewer_buses = base.clone().with_mem_buses(BusConfig {
        count: 2,
        ..base.mem_buses
    });
    let buffered = base
        .clone()
        .with_attraction_buffers(AttractionBufferConfig::paper());
    let machines = [&base, &fewer_buses, &buffered];
    let projection = |m: &MachineConfig| {
        m.clone()
            .with_interleave(suite.interleave_bytes)
            .sched_canonical_bytes()
    };
    for machine in machines {
        assert_eq!(projection(machine), projection(&base), "{machine:?}");
    }

    let mut cells = Vec::new();
    for machine in machines {
        for heuristic in [Heuristic::PrefClus, Heuristic::MinComs] {
            cells.push(Cell {
                suite: &suite,
                machine,
                solution: Solution::Mdc,
                heuristic,
            });
        }
    }
    cells.push(cells[0]);

    let (stats, compiled) = run_direct(&cells).unwrap();
    let units: HashSet<_> = cells
        .iter()
        .map(|c| (projection(c.machine), c.solution, c.heuristic))
        .collect();
    assert_eq!(units.len(), 2, "one unit per heuristic");
    assert_eq!(compiled, units.len());

    assert_eq!(stats.len(), cells.len());
    for (cell, got) in cells.iter().zip(&stats) {
        let want = Pipeline::new(cell.machine.clone())
            .run_suite(cell.suite, cell.solution, cell.heuristic)
            .unwrap();
        let ctx = format!("{:?} {}", cell.machine.mem_buses, cell.heuristic);
        assert_eq!(got.total, want.total, "{ctx}: total");
        assert_eq!(got.cluster, want.cluster, "{ctx}: cluster");
        assert_eq!(got.sched, want.sched, "{ctx}: sched");
    }
    // The sim-only variants really are simulated on their own machines.
    assert_ne!(stats[0].total, stats[4].total, "Attraction Buffers");
}
