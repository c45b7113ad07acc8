//! Swing modulo scheduler with cluster assignment for word-interleaved
//! cache clustered VLIW processors (paper Section 2.2).
//!
//! The scheduler targets cyclic code: it overlaps loop iterations at a
//! fixed initiation interval (II), choosing for every operation a cluster
//! and a cycle such that all dependences, functional units and
//! register-bus slots are honored. Cluster assignment follows one of the
//! paper's heuristics ([`Heuristic::PrefClus`] / [`Heuristic::MinComs`])
//! and respects the coherence constraints produced by the MDC or DDGT
//! solutions. Memory latencies are assigned cache-sensitively: each load
//! is scheduled with the largest latency class that does not lengthen the
//! schedule.
//!
//! # Example
//!
//! ```
//! use distvliw_arch::MachineConfig;
//! use distvliw_coherence::SchedConstraints;
//! use distvliw_ir::{DdgBuilder, OpKind, PrefMap, Width};
//! use distvliw_sched::{Heuristic, ModuloScheduler};
//!
//! let mut b = DdgBuilder::new();
//! let load = b.load(Width::W4);
//! let add = b.op(OpKind::IntAlu, &[load]);
//! let _store = b.store(Width::W4, &[add]);
//! let ddg = b.finish();
//!
//! let machine = MachineConfig::paper_baseline();
//! let schedule = ModuloScheduler::new(&machine)
//!     .schedule(&ddg, &SchedConstraints::none(), &PrefMap::new(), Heuristic::MinComs)?;
//! assert_eq!(schedule.ii, 1);
//! # Ok::<(), distvliw_sched::ScheduleError>(())
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]

mod dense;
mod eject;
pub mod mii;
mod mrt;
mod order;
mod pressure;
mod schedule;
mod scheduler;

pub use mrt::Mrt;
pub use order::PriorityOrder;
pub use schedule::{CopyOp, SchedStats, Schedule, ScheduleError, ScheduledOp};
pub use scheduler::{
    count_schedule, register_metrics, Heuristic, ModuloScheduler, SearchRecord, SEED_II_SLACK,
};
