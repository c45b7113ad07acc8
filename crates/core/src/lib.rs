//! End-to-end pipeline and experiment drivers for the CGO'03
//! reproduction.
//!
//! [`Pipeline`] wires the whole toolchain together: profiling, the
//! coherence pass (MDC chains or DDGT transformations), cluster-aware
//! modulo scheduling and cycle-level simulation. The [`experiments`]
//! module regenerates every table and figure of the paper's evaluation;
//! [`report`] renders them as text.
//!
//! # Example
//!
//! ```
//! use distvliw_arch::MachineConfig;
//! use distvliw_core::{Heuristic, Pipeline, Solution};
//!
//! let suite = distvliw_mediabench::suite("jpegenc").expect("known benchmark");
//! let pipeline = Pipeline::new(MachineConfig::paper_baseline());
//! let mdc = pipeline.run_suite(&suite, Solution::Mdc, Heuristic::PrefClus)?;
//! assert_eq!(mdc.total.coherence_violations, 0);
//! # Ok::<(), distvliw_core::PipelineError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cache;
pub mod cachekey;
pub mod experiments;
pub mod par;
mod pipeline;
pub mod report;

pub use distvliw_sched::{Heuristic, SchedStats};
pub use distvliw_sim::ClusterUsage;
pub use pipeline::{
    derive_hybrid, KernelArtifact, KernelRun, Pipeline, PipelineError, PipelineMemo,
    PipelineOptions, SchedTotals, Solution, SuiteArtifact, SuiteStats,
};

/// Registers every metric family of the pipeline's layers — scheduler,
/// checker hook, compile memo, simulator and compute pool — in the
/// global registry (at zero), so a long-running server's exposition
/// lists the same families from its first scrape on.
pub fn register_metrics() {
    distvliw_sched::register_metrics();
    distvliw_sim::register_metrics();
    pipeline::check_violations();
    pipeline::compile_memo_hits();
    par::jobs_counter();
}
