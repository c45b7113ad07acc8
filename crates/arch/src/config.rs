//! Machine configuration and the paper's presets.

use std::fmt;

use crate::latency::LatencyClass;

/// Version of [`MachineConfig::canonical_bytes`]; bump when the encoded
/// field set or order changes. Every consumer that stores canonical
/// encodings durably (the serving layer's on-disk state, see
/// `docs/persistence.md`) folds this into its era fingerprint, so a bump
/// here invalidates every persisted store instead of letting stale
/// encodings alias fresh ones.
pub const CANONICAL_BYTES_VERSION: u8 = 2;

/// Version of [`MachineConfig::sched_canonical_bytes`]; bump when the
/// scheduler starts reading a new field. The in-memory schedule memo's
/// keys embed this projection; it is also part of the serving layer's
/// durable-state era, next to [`CANONICAL_BYTES_VERSION`].
pub const SCHED_CANONICAL_BYTES_VERSION: u8 = 1;

/// Largest cluster count [`MachineConfig::validate`] accepts.
pub const MAX_CLUSTERS: usize = 64;
/// Largest total first-level cache capacity, in bytes, that
/// [`MachineConfig::validate`] accepts (the paper's is 8 KiB). It bounds
/// the simulator's per-cell tag arrays.
pub const MAX_CACHE_BYTES: u64 = 1 << 20;
/// Largest set associativity (cache and Attraction Buffers).
pub const MAX_ASSOC: usize = 64;
/// Largest latency, in cycles, of the cache, the buses and the next
/// level.
pub const MAX_LATENCY: u32 = 1024;
/// Largest count of any other resource: functional units, buses,
/// next-level ports, registers per cluster and Attraction Buffer
/// entries.
pub const MAX_UNITS: usize = 4096;

/// A set of identical shared buses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct BusConfig {
    /// Number of buses.
    pub count: usize,
    /// Transfer latency in core cycles; a bus is busy for this long per
    /// transfer ("buses run at 1/2 of the core frequency" ⇒ 2 cycles).
    pub latency: u32,
}

/// Geometry of the distributed first-level data cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct CacheConfig {
    /// Total capacity across all modules in bytes (paper: 8KB).
    pub total_bytes: u64,
    /// Cache block size in bytes (paper: 32).
    pub block_bytes: u64,
    /// Set associativity of each module (paper: 2).
    pub assoc: usize,
    /// Module access latency in cycles (paper: 1).
    pub latency: u32,
}

/// The always-hitting next memory level.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct NextLevelConfig {
    /// Number of simultaneous requests serviced per cycle (paper: 4).
    pub ports: usize,
    /// Total access latency in cycles (paper: 10).
    pub latency: u32,
}

/// Per-cluster Attraction Buffer geometry (paper Section 5: 16-entry,
/// 2-way set-associative).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct AttractionBufferConfig {
    /// Number of subblock entries.
    pub entries: usize,
    /// Set associativity.
    pub assoc: usize,
}

impl AttractionBufferConfig {
    /// The paper's evaluated configuration: 16 entries, 2-way.
    #[must_use]
    pub fn paper() -> Self {
        AttractionBufferConfig {
            entries: 16,
            assoc: 2,
        }
    }
}

/// Functional units per cluster.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct FuMix {
    /// Integer ALUs.
    pub integer: usize,
    /// Floating-point units.
    pub fp: usize,
    /// Memory (load/store) units.
    pub memory: usize,
}

impl FuMix {
    /// The paper's mix: one of each per cluster.
    #[must_use]
    pub fn paper() -> Self {
        FuMix {
            integer: 1,
            fp: 1,
            memory: 1,
        }
    }
}

/// Errors reported by [`MachineConfig::validate`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ConfigError {
    /// Zero clusters, buses, ports, units or sizes where positives are
    /// required.
    ZeroResource(&'static str),
    /// The cache geometry does not divide evenly across clusters
    /// (`block_bytes` must be a multiple of `n_clusters × interleave`).
    UnevenInterleave,
    /// Total cache capacity does not split evenly into per-cluster modules
    /// of whole sets.
    UnevenCapacity,
    /// A size, count or latency above its bound (`MAX_*`), which keeps
    /// one cell's memory and time bounded before anything is allocated.
    TooLarge {
        /// The offending field.
        what: &'static str,
        /// Its largest accepted value.
        max: u64,
    },
}

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ConfigError::ZeroResource(what) => write!(f, "{what} must be positive"),
            ConfigError::UnevenInterleave => write!(
                f,
                "cache block size must be a multiple of n_clusters × interleave_bytes"
            ),
            ConfigError::UnevenCapacity => {
                write!(
                    f,
                    "cache capacity must split evenly into per-cluster modules"
                )
            }
            ConfigError::TooLarge { what, max } => write!(f, "{what} must be at most {max}"),
        }
    }
}

impl std::error::Error for ConfigError {}

/// Full description of a word-interleaved cache clustered VLIW machine.
///
/// Construct via [`MachineConfig::paper_baseline`] (Table 2) or the NOBAL
/// presets and adjust fields with the `with_*` builders. All runs in this
/// workspace validate the configuration before use.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MachineConfig {
    /// Number of clusters (paper: 4).
    pub n_clusters: usize,
    /// Functional units per cluster.
    pub fu: FuMix,
    /// Distributed data cache geometry.
    pub cache: CacheConfig,
    /// Register-to-register communication buses.
    pub reg_buses: BusConfig,
    /// Memory buses between clusters and cache modules / next level.
    pub mem_buses: BusConfig,
    /// The next memory level.
    pub next_level: NextLevelConfig,
    /// Interleaving factor in bytes (paper Table 1: 2 or 4 per benchmark).
    pub interleave_bytes: u64,
    /// Attraction Buffers, if present (paper Section 5).
    pub attraction_buffers: Option<AttractionBufferConfig>,
    /// General-purpose registers per cluster. The scheduler's stage-aware
    /// pressure model charges a live range crossing `k` stage boundaries
    /// `k + 1` registers and rejects placements that would exceed this
    /// budget (instead of letting the overflow surface later as
    /// unschedulable spill traffic).
    pub regs_per_cluster: usize,
}

impl MachineConfig {
    /// The paper's Table 2 configuration with a 4-byte interleave and no
    /// Attraction Buffers.
    #[must_use]
    pub fn paper_baseline() -> Self {
        MachineConfig {
            n_clusters: 4,
            fu: FuMix::paper(),
            cache: CacheConfig {
                total_bytes: 8 * 1024,
                block_bytes: 32,
                assoc: 2,
                latency: 1,
            },
            reg_buses: BusConfig {
                count: 4,
                latency: 2,
            },
            mem_buses: BusConfig {
                count: 4,
                latency: 2,
            },
            next_level: NextLevelConfig {
                ports: 4,
                latency: 10,
            },
            interleave_bytes: 4,
            attraction_buffers: None,
            regs_per_cluster: 64,
        }
    }

    /// The unbalanced configuration with more memory than register buses
    /// (paper Section 4.2, NOBAL+MEM): four 2-cycle memory buses, two
    /// 4-cycle register buses.
    #[must_use]
    pub fn nobal_mem() -> Self {
        MachineConfig {
            reg_buses: BusConfig {
                count: 2,
                latency: 4,
            },
            mem_buses: BusConfig {
                count: 4,
                latency: 2,
            },
            ..MachineConfig::paper_baseline()
        }
    }

    /// The unbalanced configuration with more register than memory buses
    /// (paper Section 4.2, NOBAL+REG): two 4-cycle memory buses, four
    /// 2-cycle register buses.
    #[must_use]
    pub fn nobal_reg() -> Self {
        MachineConfig {
            reg_buses: BusConfig {
                count: 4,
                latency: 2,
            },
            mem_buses: BusConfig {
                count: 2,
                latency: 4,
            },
            ..MachineConfig::paper_baseline()
        }
    }

    /// Returns the configuration with the given interleaving factor.
    #[must_use]
    pub fn with_interleave(mut self, bytes: u64) -> Self {
        self.interleave_bytes = bytes;
        self
    }

    /// Returns the configuration with Attraction Buffers enabled.
    #[must_use]
    pub fn with_attraction_buffers(mut self, ab: AttractionBufferConfig) -> Self {
        self.attraction_buffers = Some(ab);
        self
    }

    /// Returns the configuration with the given register-bus setup.
    #[must_use]
    pub fn with_reg_buses(mut self, buses: BusConfig) -> Self {
        self.reg_buses = buses;
        self
    }

    /// Returns the configuration with the given memory-bus setup.
    #[must_use]
    pub fn with_mem_buses(mut self, buses: BusConfig) -> Self {
        self.mem_buses = buses;
        self
    }

    /// Returns the configuration with the given per-cluster register
    /// file size.
    #[must_use]
    pub fn with_regs_per_cluster(mut self, regs: usize) -> Self {
        self.regs_per_cluster = regs;
        self
    }

    /// Checks the configuration for internal consistency.
    ///
    /// # Errors
    ///
    /// Returns a [`ConfigError`] describing the first inconsistency.
    pub fn validate(&self) -> Result<(), ConfigError> {
        if self.n_clusters == 0 {
            return Err(ConfigError::ZeroResource("n_clusters"));
        }
        if self.fu.memory == 0 || self.fu.integer == 0 {
            return Err(ConfigError::ZeroResource("functional units"));
        }
        if self.reg_buses.count == 0 || self.mem_buses.count == 0 {
            return Err(ConfigError::ZeroResource("buses"));
        }
        if self.reg_buses.latency == 0 || self.mem_buses.latency == 0 {
            return Err(ConfigError::ZeroResource("bus latency"));
        }
        if self.next_level.ports == 0 {
            return Err(ConfigError::ZeroResource("next-level ports"));
        }
        if self.regs_per_cluster == 0 {
            return Err(ConfigError::ZeroResource("registers per cluster"));
        }
        if self.interleave_bytes == 0
            || self.cache.block_bytes == 0
            || self.cache.total_bytes == 0
            || self.cache.assoc == 0
        {
            return Err(ConfigError::ZeroResource("cache geometry"));
        }
        if self
            .attraction_buffers
            .is_some_and(|ab| ab.entries == 0 || ab.assoc == 0)
        {
            return Err(ConfigError::ZeroResource("attraction buffers"));
        }
        let (units, lat, assoc) = (MAX_UNITS as u64, u64::from(MAX_LATENCY), MAX_ASSOC as u64);
        let ab = self.attraction_buffers.unwrap_or(AttractionBufferConfig {
            entries: 1,
            assoc: 1,
        });
        let bounds = [
            ("n_clusters", self.n_clusters as u64, MAX_CLUSTERS as u64),
            ("cache.total_bytes", self.cache.total_bytes, MAX_CACHE_BYTES),
            ("cache.assoc", self.cache.assoc as u64, assoc),
            ("cache.latency", self.cache.latency.into(), lat),
            ("reg_buses.latency", self.reg_buses.latency.into(), lat),
            ("mem_buses.latency", self.mem_buses.latency.into(), lat),
            ("next_level.latency", self.next_level.latency.into(), lat),
            ("fu.integer", self.fu.integer as u64, units),
            ("fu.fp", self.fu.fp as u64, units),
            ("fu.memory", self.fu.memory as u64, units),
            ("reg_buses.count", self.reg_buses.count as u64, units),
            ("mem_buses.count", self.mem_buses.count as u64, units),
            ("next_level.ports", self.next_level.ports as u64, units),
            ("regs_per_cluster", self.regs_per_cluster as u64, units),
            ("attraction_buffers.entries", ab.entries as u64, units),
            ("attraction_buffers.assoc", ab.assoc as u64, assoc),
        ];
        if let Some(&(what, _, max)) = bounds.iter().find(|(_, value, max)| value > max) {
            return Err(ConfigError::TooLarge { what, max });
        }
        // Checked: the interleave is not bounded on its own, so the
        // stripe can overflow; no block is a multiple of such a stripe.
        let stripe = (self.n_clusters as u64)
            .checked_mul(self.interleave_bytes)
            .ok_or(ConfigError::UnevenInterleave)?;
        if !self.cache.block_bytes.is_multiple_of(stripe) {
            return Err(ConfigError::UnevenInterleave);
        }
        if !self
            .cache
            .total_bytes
            .is_multiple_of(self.n_clusters as u64)
        {
            return Err(ConfigError::UnevenCapacity);
        }
        let module_bytes = self.cache.total_bytes / self.n_clusters as u64;
        let line = self.subblock_bytes() * self.cache.assoc as u64;
        if line == 0 || !module_bytes.is_multiple_of(line) {
            return Err(ConfigError::UnevenCapacity);
        }
        Ok(())
    }

    /// A canonical, versioned byte encoding of every field, suitable for
    /// content-addressed hashing (the serving layer's result-cache keys).
    ///
    /// Two configurations encode to the same bytes **iff** they compare
    /// equal: every field — including the Attraction-Buffer option — is
    /// appended in a fixed order as fixed-width little-endian integers,
    /// with a leading format version ([`CANONICAL_BYTES_VERSION`]) so a
    /// future field addition changes every key instead of silently
    /// aliasing old entries.
    #[must_use]
    pub fn canonical_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(96);
        out.push(CANONICAL_BYTES_VERSION);
        let mut u64le = |v: u64| out.extend_from_slice(&v.to_le_bytes());
        u64le(self.n_clusters as u64);
        u64le(self.fu.integer as u64);
        u64le(self.fu.fp as u64);
        u64le(self.fu.memory as u64);
        u64le(self.cache.total_bytes);
        u64le(self.cache.block_bytes);
        u64le(self.cache.assoc as u64);
        u64le(u64::from(self.cache.latency));
        u64le(self.reg_buses.count as u64);
        u64le(u64::from(self.reg_buses.latency));
        u64le(self.mem_buses.count as u64);
        u64le(u64::from(self.mem_buses.latency));
        u64le(self.next_level.ports as u64);
        u64le(u64::from(self.next_level.latency));
        u64le(self.interleave_bytes);
        u64le(self.regs_per_cluster as u64);
        match self.attraction_buffers {
            None => u64le(0),
            Some(ab) => {
                u64le(1);
                u64le(ab.entries as u64);
                u64le(ab.assoc as u64);
            }
        }
        out
    }

    /// A canonical byte encoding of only the fields the modulo scheduler
    /// reads: cluster count, functional-unit mix, register buses,
    /// registers per cluster, the interleaving factor (which fixes the
    /// home cluster of every address, and with it the profile
    /// preferences), and the three latencies behind
    /// [`MachineConfig::latency_of`] (cache, memory-bus and next-level).
    ///
    /// Two configurations with equal projections produce byte-identical
    /// schedules — and identical search telemetry — for any kernel,
    /// because the scheduler never reads the remaining fields (memory-bus
    /// *count*, cache geometry, next-level ports, Attraction Buffers are
    /// simulation-only). The direct cell executor
    /// (`experiments::run_direct`) keys its compile units on this
    /// projection so grid cells that differ only in sim-only axes share
    /// one compile.
    #[must_use]
    pub fn sched_canonical_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(96);
        out.push(SCHED_CANONICAL_BYTES_VERSION);
        let mut u64le = |v: u64| out.extend_from_slice(&v.to_le_bytes());
        u64le(self.n_clusters as u64);
        u64le(self.fu.integer as u64);
        u64le(self.fu.fp as u64);
        u64le(self.fu.memory as u64);
        u64le(self.reg_buses.count as u64);
        u64le(u64::from(self.reg_buses.latency));
        u64le(self.regs_per_cluster as u64);
        u64le(self.interleave_bytes);
        u64le(u64::from(self.cache.latency));
        u64le(u64::from(self.mem_buses.latency));
        u64le(u64::from(self.next_level.latency));
        out
    }

    /// Bytes of each cache block held by one cluster ("subblock", paper
    /// Section 2.1).
    #[must_use]
    pub fn subblock_bytes(&self) -> u64 {
        self.cache.block_bytes / self.n_clusters as u64
    }

    /// Per-module capacity in bytes.
    #[must_use]
    pub fn module_bytes(&self) -> u64 {
        self.cache.total_bytes / self.n_clusters as u64
    }

    /// Number of sets in each cache module.
    #[must_use]
    pub fn module_sets(&self) -> usize {
        (self.module_bytes() / (self.subblock_bytes() * self.cache.assoc as u64)) as usize
    }

    /// The latency in cycles of an access satisfied with the given class:
    /// module latency, plus a bus round trip for remote accesses, plus the
    /// next-level latency for misses.
    #[must_use]
    pub fn latency_of(&self, class: LatencyClass) -> u32 {
        let bus_round_trip = 2 * self.mem_buses.latency;
        match class {
            LatencyClass::LocalHit => self.cache.latency,
            LatencyClass::RemoteHit => self.cache.latency + bus_round_trip,
            LatencyClass::LocalMiss => self.cache.latency + self.next_level.latency,
            LatencyClass::RemoteMiss => {
                self.cache.latency + bus_round_trip + self.next_level.latency
            }
        }
    }
}

impl Default for MachineConfig {
    fn default() -> Self {
        MachineConfig::paper_baseline()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_baseline_is_valid_and_matches_table2() {
        let m = MachineConfig::paper_baseline();
        assert_eq!(m.validate(), Ok(()));
        assert_eq!(m.n_clusters, 4);
        assert_eq!(m.module_bytes(), 2048);
        assert_eq!(m.subblock_bytes(), 8);
        // 2KB module / (8B line × 2 ways) = 128 sets.
        assert_eq!(m.module_sets(), 128);
    }

    #[test]
    fn paper_latencies() {
        let m = MachineConfig::paper_baseline();
        assert_eq!(m.latency_of(LatencyClass::LocalHit), 1);
        assert_eq!(m.latency_of(LatencyClass::RemoteHit), 5);
        assert_eq!(m.latency_of(LatencyClass::LocalMiss), 11);
        assert_eq!(m.latency_of(LatencyClass::RemoteMiss), 15);
    }

    #[test]
    fn nobal_presets() {
        let mem = MachineConfig::nobal_mem();
        assert_eq!(mem.validate(), Ok(()));
        assert_eq!(
            mem.mem_buses,
            BusConfig {
                count: 4,
                latency: 2
            }
        );
        assert_eq!(
            mem.reg_buses,
            BusConfig {
                count: 2,
                latency: 4
            }
        );

        let reg = MachineConfig::nobal_reg();
        assert_eq!(reg.validate(), Ok(()));
        assert_eq!(
            reg.mem_buses,
            BusConfig {
                count: 2,
                latency: 4
            }
        );
        assert_eq!(
            reg.reg_buses,
            BusConfig {
                count: 4,
                latency: 2
            }
        );
        // NOBAL+REG remote accesses are slower.
        assert!(reg.latency_of(LatencyClass::RemoteHit) > mem.latency_of(LatencyClass::RemoteHit));
    }

    #[test]
    fn two_byte_interleave_is_valid() {
        let m = MachineConfig::paper_baseline().with_interleave(2);
        assert_eq!(m.validate(), Ok(()));
    }

    #[test]
    fn builders_compose() {
        let m = MachineConfig::paper_baseline()
            .with_interleave(2)
            .with_attraction_buffers(AttractionBufferConfig::paper())
            .with_reg_buses(BusConfig {
                count: 32,
                latency: 2,
            });
        assert_eq!(m.validate(), Ok(()));
        assert_eq!(m.interleave_bytes, 2);
        assert_eq!(
            m.attraction_buffers,
            Some(AttractionBufferConfig {
                entries: 16,
                assoc: 2
            })
        );
        assert_eq!(m.reg_buses.count, 32);
    }

    #[test]
    fn validation_rejects_uneven_interleave() {
        // 4 clusters × 16-byte interleave = 64 > 32-byte blocks.
        let m = MachineConfig::paper_baseline().with_interleave(16);
        assert_eq!(m.validate(), Err(ConfigError::UnevenInterleave));
    }

    #[test]
    fn validation_rejects_zero_resources() {
        let mut m = MachineConfig::paper_baseline();
        m.n_clusters = 0;
        assert!(matches!(m.validate(), Err(ConfigError::ZeroResource(_))));

        let mut m = MachineConfig::paper_baseline();
        m.mem_buses.count = 0;
        assert!(matches!(m.validate(), Err(ConfigError::ZeroResource(_))));

        let mut m = MachineConfig::paper_baseline();
        m.interleave_bytes = 0;
        assert!(matches!(m.validate(), Err(ConfigError::ZeroResource(_))));

        // A zero-way buffer would divide by zero sizing its sets.
        for (entries, assoc) in [(16, 0), (0, 2)] {
            let m = MachineConfig::paper_baseline()
                .with_attraction_buffers(AttractionBufferConfig { entries, assoc });
            assert!(matches!(m.validate(), Err(ConfigError::ZeroResource(_))));
        }
    }

    #[test]
    fn validation_bounds_sizes_counts_and_latencies() {
        let too_large = |m: &MachineConfig, what: &str| {
            assert!(
                matches!(m.validate(), Err(ConfigError::TooLarge { what: w, .. }) if w == what),
                "{what}: {:?}",
                m.validate()
            );
        };
        // The body that once drove a 64 GiB allocation.
        let mut m = MachineConfig::paper_baseline();
        m.n_clusters = 1 << 33;
        m.interleave_bytes = 1;
        m.cache.block_bytes = 1 << 33;
        m.cache.total_bytes = 1 << 33;
        m.cache.assoc = 1;
        too_large(&m, "n_clusters");
        m.n_clusters = 4;
        too_large(&m, "cache.total_bytes");

        let mut m = MachineConfig::paper_baseline();
        m.cache.assoc = MAX_ASSOC + 1;
        too_large(&m, "cache.assoc");
        let mut m = MachineConfig::paper_baseline();
        m.next_level.latency = MAX_LATENCY + 1;
        too_large(&m, "next_level.latency");
        let mut m = MachineConfig::paper_baseline();
        m.mem_buses.count = MAX_UNITS + 1;
        too_large(&m, "mem_buses.count");
        let mut m =
            MachineConfig::paper_baseline().with_attraction_buffers(AttractionBufferConfig {
                entries: MAX_UNITS + 1,
                assoc: 2,
            });
        too_large(&m, "attraction_buffers.entries");

        // The stripe n_clusters × interleave_bytes overflows u64.
        m = MachineConfig::paper_baseline().with_interleave(1 << 63);
        assert_eq!(m.validate(), Err(ConfigError::UnevenInterleave));

        // Every bound is inclusive.
        let mut m = MachineConfig::paper_baseline();
        m.n_clusters = MAX_CLUSTERS;
        m.interleave_bytes = 1;
        m.cache.block_bytes = MAX_CLUSTERS as u64;
        m.cache.total_bytes = MAX_CACHE_BYTES;
        m.cache.assoc = MAX_ASSOC;
        m.cache.latency = MAX_LATENCY;
        assert_eq!(m.validate(), Ok(()));
    }

    #[test]
    fn validation_rejects_uneven_capacity() {
        let mut m = MachineConfig::paper_baseline();
        m.cache.total_bytes = 8 * 1024 + 4;
        assert_eq!(m.validate(), Err(ConfigError::UnevenCapacity));
    }

    #[test]
    fn default_is_paper_baseline() {
        assert_eq!(MachineConfig::default(), MachineConfig::paper_baseline());
    }

    #[test]
    fn canonical_bytes_are_stable_and_injective() {
        let base = MachineConfig::paper_baseline();
        assert_eq!(base.canonical_bytes(), base.canonical_bytes());

        // Every single-field perturbation must change the encoding.
        let mut variants: Vec<MachineConfig> = Vec::new();
        let mut m = base.clone();
        m.n_clusters = 8;
        variants.push(m);
        let mut m = base.clone();
        m.fu.integer = 2;
        variants.push(m);
        let mut m = base.clone();
        m.fu.fp = 2;
        variants.push(m);
        let mut m = base.clone();
        m.fu.memory = 2;
        variants.push(m);
        let mut m = base.clone();
        m.cache.total_bytes = 16 * 1024;
        variants.push(m);
        let mut m = base.clone();
        m.cache.block_bytes = 64;
        variants.push(m);
        let mut m = base.clone();
        m.cache.assoc = 4;
        variants.push(m);
        let mut m = base.clone();
        m.cache.latency = 2;
        variants.push(m);
        variants.push(base.clone().with_reg_buses(BusConfig {
            count: 2,
            latency: 2,
        }));
        variants.push(base.clone().with_mem_buses(BusConfig {
            count: 4,
            latency: 4,
        }));
        let mut m = base.clone();
        m.next_level.ports = 2;
        variants.push(m);
        let mut m = base.clone();
        m.next_level.latency = 20;
        variants.push(m);
        variants.push(base.clone().with_interleave(2));
        variants.push(base.clone().with_regs_per_cluster(128));
        variants.push(
            base.clone()
                .with_attraction_buffers(AttractionBufferConfig::paper()),
        );
        variants.push(
            base.clone()
                .with_attraction_buffers(AttractionBufferConfig {
                    entries: 32,
                    assoc: 2,
                }),
        );

        let base_bytes = base.canonical_bytes();
        let mut seen = vec![base_bytes.clone()];
        for v in &variants {
            let bytes = v.canonical_bytes();
            assert_ne!(bytes, base_bytes, "{v:?} aliases the baseline");
            assert!(!seen.contains(&bytes), "{v:?} aliases another variant");
            seen.push(bytes);
        }
    }

    #[test]
    fn sched_projection_ignores_sim_only_fields() {
        let base = MachineConfig::paper_baseline();
        let proj = base.sched_canonical_bytes();
        assert_eq!(proj, base.sched_canonical_bytes(), "stable");

        // Simulation-only perturbations keep the projection: the
        // scheduler never reads these, so their schedules are shared.
        let mut sim_only: Vec<MachineConfig> = Vec::new();
        let mut m = base.clone();
        m.mem_buses.count = 2;
        sim_only.push(m);
        let mut m = base.clone();
        m.cache.total_bytes = 16 * 1024;
        sim_only.push(m);
        let mut m = base.clone();
        m.cache.block_bytes = 64;
        sim_only.push(m);
        let mut m = base.clone();
        m.cache.assoc = 4;
        sim_only.push(m);
        let mut m = base.clone();
        m.next_level.ports = 2;
        sim_only.push(m);
        sim_only.push(
            base.clone()
                .with_attraction_buffers(AttractionBufferConfig::paper()),
        );
        for v in &sim_only {
            assert_eq!(v.sched_canonical_bytes(), proj, "{v:?} must share");
            assert_ne!(v.canonical_bytes(), base.canonical_bytes());
        }

        // Scheduler-visible perturbations must each change it.
        let mut sched_visible: Vec<MachineConfig> = Vec::new();
        let mut m = base.clone();
        m.n_clusters = 8;
        sched_visible.push(m);
        let mut m = base.clone();
        m.fu.memory = 2;
        sched_visible.push(m);
        let mut m = base.clone();
        m.reg_buses.count = 2;
        sched_visible.push(m);
        let mut m = base.clone();
        m.reg_buses.latency = 4;
        sched_visible.push(m);
        let mut m = base.clone();
        m.mem_buses.latency = 4;
        sched_visible.push(m);
        let mut m = base.clone();
        m.cache.latency = 2;
        sched_visible.push(m);
        let mut m = base.clone();
        m.next_level.latency = 20;
        sched_visible.push(m);
        sched_visible.push(base.clone().with_interleave(2));
        sched_visible.push(base.clone().with_regs_per_cluster(128));
        let mut seen = vec![proj.clone()];
        for v in &sched_visible {
            let bytes = v.sched_canonical_bytes();
            assert_ne!(bytes, proj, "{v:?} must differ");
            assert!(!seen.contains(&bytes), "{v:?} aliases another variant");
            seen.push(bytes);
        }
    }
}
