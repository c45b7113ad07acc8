//! Machine description for word-interleaved cache clustered VLIW
//! processors (paper Section 2.1, Table 2).
//!
//! The model is a fully-distributed clustered VLIW: each cluster owns a
//! register file, one integer / one FP / one memory functional unit, and a
//! *cache module* holding an interleaved slice of every cache block.
//! Clusters exchange register values over register-to-register buses and
//! memory requests over memory buses, both running at half the core
//! frequency (2-cycle transfers in the default configuration).
//!
//! # Example
//!
//! ```
//! use distvliw_arch::{LatencyClass, MachineConfig};
//!
//! let m = MachineConfig::paper_baseline();
//! assert_eq!(m.n_clusters, 4);
//! // Word interleaving: consecutive 4-byte words round-robin the clusters.
//! assert_eq!(m.home_cluster(0x1000), 0);
//! assert_eq!(m.home_cluster(0x1004), 1);
//! assert_eq!(m.latency_of(LatencyClass::LocalHit), 1);
//! assert_eq!(m.latency_of(LatencyClass::RemoteMiss), 15);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod config;
mod latency;
mod mapping;

pub use config::{
    AttractionBufferConfig, BusConfig, CacheConfig, ConfigError, FuMix, MachineConfig,
    NextLevelConfig, CANONICAL_BYTES_VERSION, MAX_ASSOC, MAX_CACHE_BYTES, MAX_CLUSTERS,
    MAX_LATENCY, MAX_UNITS, SCHED_CANONICAL_BYTES_VERSION,
};
pub use latency::{AccessClass, LatencyClass};
pub use mapping::SubblockId;
