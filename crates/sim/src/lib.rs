//! Cycle-level, trace-driven simulator for a stall-on-use clustered VLIW
//! processor with a word-interleaved distributed data cache (paper
//! Sections 2.1 and 4.1).
//!
//! The simulator executes a modulo [`distvliw_sched::Schedule`] over the
//! iterations of a [`distvliw_ir::LoopKernel`]:
//!
//! * **Lockstep stall-on-use**: the machine freezes when an issuing
//!   consumer's operand has not arrived; stall time and compute time are
//!   accounted separately (the two segments of the paper's Figure 7
//!   bars).
//! * **Distributed memory system** ([`MemorySystem`]): per-cluster cache
//!   modules, shared memory buses with contention, a 4-port always-hit
//!   next level, request combining (the paper's *combined* accesses) and
//!   optional per-cluster Attraction Buffers (paper Section 5).
//! * **Store-replication semantics**: of a DDGT replica group only the
//!   instance in the access's home cluster commits; the rest are
//!   nullified (refreshing resident Attraction-Buffer copies).
//! * **Violation detection** ([`ViolationDetector`]): stale reads that
//!   the unsound Free baseline would perform are counted, so tests can
//!   assert MDC and DDGT eliminate them.

#![forbid(unsafe_code)]
#![deny(missing_docs)]

mod engine;
mod fx;
mod memsys;
mod stats;
mod violation;

pub use engine::{
    count_simulation, register_metrics, simulate_kernel, simulate_kernel_detailed,
    simulate_kernel_run, SimOptions, SimRun, SimWork,
};
pub use memsys::{AccessResult, BatchAccess, MemorySystem, ResourcePool, SubblockCache};
pub use stats::{AccessCounts, ClusterCounts, ClusterUsage, SimStats};
pub use violation::ViolationDetector;
