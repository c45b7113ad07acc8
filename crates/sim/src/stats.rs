//! Simulation statistics.

use std::fmt;
use std::ops::{Add, AddAssign};

use distvliw_arch::AccessClass;

/// `value × factor`; panics on overflow, which the kernel limits of
/// `LoopKernel::validate` rule out (see `distvliw_ir::MAX_TRIP_COUNT`).
fn scale(value: u64, factor: u64) -> u64 {
    value
        .checked_mul(factor)
        .expect("scaled counter overflows u64")
}

/// Counters for the five access classes of the paper's Figure 6.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AccessCounts([u64; 5]);

impl AccessCounts {
    /// All-zero counters.
    #[must_use]
    pub fn new() -> Self {
        AccessCounts::default()
    }

    /// Records one access of the given class.
    pub fn record(&mut self, class: AccessClass) {
        self.0[class.index()] += 1;
    }

    /// The count for one class.
    #[must_use]
    pub fn get(&self, class: AccessClass) -> u64 {
        self.0[class.index()]
    }

    /// Total classified accesses.
    #[must_use]
    pub fn total(&self) -> u64 {
        self.0.iter().sum()
    }

    /// The raw per-class counters, indexed like [`AccessClass::ALL`].
    /// With [`AccessCounts::from_array`], the lossless round-trip the
    /// serving layer's on-disk codec relies on.
    #[must_use]
    pub fn as_array(&self) -> [u64; 5] {
        self.0
    }

    /// Reconstructs counters from [`AccessCounts::as_array`] output.
    #[must_use]
    pub fn from_array(counts: [u64; 5]) -> Self {
        AccessCounts(counts)
    }

    /// Fraction of accesses in `class` (0 when empty).
    #[must_use]
    pub fn fraction(&self, class: AccessClass) -> f64 {
        let t = self.total();
        if t == 0 {
            0.0
        } else {
            self.get(class) as f64 / t as f64
        }
    }

    /// The paper's *local hit ratio*: local hits over all accesses.
    #[must_use]
    pub fn local_hit_ratio(&self) -> f64 {
        self.fraction(AccessClass::LocalHit)
    }

    /// Scales every counter by `factor`, the invocation count (checked).
    #[must_use]
    pub fn scaled(mut self, factor: u64) -> Self {
        for c in &mut self.0 {
            *c = scale(*c, factor);
        }
        self
    }
}

impl Add for AccessCounts {
    type Output = AccessCounts;

    fn add(mut self, rhs: AccessCounts) -> AccessCounts {
        self += rhs;
        self
    }
}

impl AddAssign for AccessCounts {
    fn add_assign(&mut self, rhs: AccessCounts) {
        for (a, b) in self.0.iter_mut().zip(rhs.0) {
            *a += b;
        }
    }
}

impl fmt::Display for AccessCounts {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (i, class) in AccessClass::ALL.iter().enumerate() {
            if i > 0 {
                write!(f, " ")?;
            }
            write!(f, "{class}={}", self.get(*class))?;
        }
        Ok(())
    }
}

/// A dense per-cluster counter table, indexed by cluster id.
///
/// Per-cluster accumulation in the simulator never goes through a map:
/// cluster ids are small contiguous integers, so a flat `Vec<u64>` gives
/// O(1) increments with no hashing. The [`crate::ViolationDetector`]
/// attributes violations through this table; the
/// [`crate::MemorySystem`] follows the same dense pattern with one
/// [`AccessCounts`] per cluster (see
/// [`crate::MemorySystem::counts_of_cluster`]).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ClusterCounts(Vec<u64>);

impl ClusterCounts {
    /// All-zero counters for `n` clusters. The table also grows on demand
    /// if a larger cluster id is recorded.
    #[must_use]
    pub fn new(n: usize) -> Self {
        ClusterCounts(vec![0; n])
    }

    /// Adds `n` to `cluster`'s counter, growing the table if needed.
    pub fn add(&mut self, cluster: usize, n: u64) {
        if cluster >= self.0.len() {
            self.0.resize(cluster + 1, 0);
        }
        self.0[cluster] += n;
    }

    /// The count for `cluster` (0 if never recorded).
    #[must_use]
    pub fn get(&self, cluster: usize) -> u64 {
        self.0.get(cluster).copied().unwrap_or(0)
    }

    /// Sum over all clusters.
    #[must_use]
    pub fn total(&self) -> u64 {
        self.0.iter().sum()
    }

    /// The raw counters, indexed by cluster.
    #[must_use]
    pub fn as_slice(&self) -> &[u64] {
        &self.0
    }

    /// Scales every counter by `factor`, the invocation count (checked).
    #[must_use]
    pub fn scaled(mut self, factor: u64) -> Self {
        for c in &mut self.0 {
            *c = scale(*c, factor);
        }
        self
    }
}

impl AddAssign<&ClusterCounts> for ClusterCounts {
    fn add_assign(&mut self, rhs: &ClusterCounts) {
        if self.0.len() < rhs.0.len() {
            self.0.resize(rhs.0.len(), 0);
        }
        for (a, b) in self.0.iter_mut().zip(&rhs.0) {
            *a += b;
        }
    }
}

/// Per-cluster resource usage of one simulated loop (or the aggregate of
/// many): the counters PR 2 plumbed into the memory system and violation
/// detector, surfaced so reports and the serving layer can quantify
/// cluster imbalance.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ClusterUsage {
    /// Classified accesses issued by each cluster (same totals as
    /// [`SimStats::accesses`], split by issuing cluster).
    pub accesses: Vec<AccessCounts>,
    /// Coherence violations attributed to each cluster's accesses.
    pub violations: ClusterCounts,
    /// Memory-bus grants issued over the run
    /// ([`crate::ResourcePool::grants`] of the bus pool).
    pub mem_bus_grants: u64,
    /// Next-level port grants issued over the run.
    pub next_level_grants: u64,
}

impl ClusterUsage {
    /// Total accesses issued by `cluster`.
    #[must_use]
    pub fn accesses_of(&self, cluster: usize) -> u64 {
        self.accesses.get(cluster).map_or(0, AccessCounts::total)
    }

    /// The imbalance ratio: the busiest cluster's access count over the
    /// per-cluster mean. 1.0 means perfectly balanced; `n_clusters`
    /// means one cluster issued everything. Returns 1.0 when no accesses
    /// were recorded.
    #[must_use]
    pub fn imbalance(&self) -> f64 {
        let totals: Vec<u64> = self.accesses.iter().map(AccessCounts::total).collect();
        let sum: u64 = totals.iter().sum();
        if sum == 0 || totals.is_empty() {
            return 1.0;
        }
        let max = *totals.iter().max().expect("nonempty totals");
        max as f64 * totals.len() as f64 / sum as f64
    }

    /// Scales every counter by `factor`, the invocation count (checked).
    #[must_use]
    pub fn scaled(mut self, factor: u64) -> Self {
        for a in &mut self.accesses {
            *a = a.scaled(factor);
        }
        self.violations = self.violations.scaled(factor);
        self.mem_bus_grants = scale(self.mem_bus_grants, factor);
        self.next_level_grants = scale(self.next_level_grants, factor);
        self
    }
}

impl AddAssign<&ClusterUsage> for ClusterUsage {
    fn add_assign(&mut self, rhs: &ClusterUsage) {
        if self.accesses.len() < rhs.accesses.len() {
            self.accesses
                .resize(rhs.accesses.len(), AccessCounts::new());
        }
        for (a, b) in self.accesses.iter_mut().zip(&rhs.accesses) {
            *a += *b;
        }
        self.violations += &rhs.violations;
        self.mem_bus_grants += rhs.mem_bus_grants;
        self.next_level_grants += rhs.next_level_grants;
    }
}

/// Result of simulating one loop (or the aggregate of many).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SimStats {
    /// Cycles in which the processor issued (schedule advance).
    pub compute_cycles: u64,
    /// Cycles in which the processor was frozen waiting for an operand.
    pub stall_cycles: u64,
    /// Classified memory accesses.
    pub accesses: AccessCounts,
    /// Stale reads the Free baseline would have performed (always zero
    /// under MDC/DDGT).
    pub coherence_violations: u64,
    /// Dynamic inter-cluster register copies executed.
    pub comm_ops: u64,
    /// Loop iterations executed: the trip count times the invocations.
    pub iterations: u64,
    /// Cycles the memory buses were granted (grants × per-grant
    /// occupancy), summed over all buses: the paper's bus-occupancy
    /// pressure metric.
    pub bus_busy_cycles: u64,
    /// The drain window of the run: when the last memory-bus transfer
    /// completed, or the schedule drained, whichever is later. Stores
    /// are fire-and-forget, so the buses can stay busy *after* the last
    /// issue cycle; the capacity invariant `bus_busy_cycles ≤
    /// bus_drain_cycles × bus count` always holds and is pinned by the
    /// property suite. Because each kernel's window is at least its
    /// `total_cycles()`, the invariant survives summing over kernels
    /// and invocation scaling.
    pub bus_drain_cycles: u64,
}

impl SimStats {
    /// Total cycles: compute + stall.
    #[must_use]
    pub fn total_cycles(&self) -> u64 {
        self.compute_cycles + self.stall_cycles
    }

    /// The paper's local hit ratio.
    #[must_use]
    pub fn local_hit_ratio(&self) -> f64 {
        self.accesses.local_hit_ratio()
    }

    /// Scales every counter by `factor`, the invocation count (checked).
    #[must_use]
    pub fn scaled(mut self, factor: u64) -> Self {
        self.compute_cycles = scale(self.compute_cycles, factor);
        self.stall_cycles = scale(self.stall_cycles, factor);
        self.accesses = self.accesses.scaled(factor);
        self.coherence_violations = scale(self.coherence_violations, factor);
        self.comm_ops = scale(self.comm_ops, factor);
        self.iterations = scale(self.iterations, factor);
        self.bus_busy_cycles = scale(self.bus_busy_cycles, factor);
        self.bus_drain_cycles = scale(self.bus_drain_cycles, factor);
        self
    }
}

impl Add for SimStats {
    type Output = SimStats;

    fn add(mut self, rhs: SimStats) -> SimStats {
        self += rhs;
        self
    }
}

impl AddAssign for SimStats {
    fn add_assign(&mut self, rhs: SimStats) {
        self.compute_cycles += rhs.compute_cycles;
        self.stall_cycles += rhs.stall_cycles;
        self.accesses += rhs.accesses;
        self.coherence_violations += rhs.coherence_violations;
        self.comm_ops += rhs.comm_ops;
        self.iterations += rhs.iterations;
        self.bus_busy_cycles += rhs.bus_busy_cycles;
        self.bus_drain_cycles += rhs.bus_drain_cycles;
    }
}

impl fmt::Display for SimStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "cycles={} (compute={} stall={}) accesses=[{}] violations={} copies={} bus_busy={}",
            self.total_cycles(),
            self.compute_cycles,
            self.stall_cycles,
            self.accesses,
            self.coherence_violations,
            self.comm_ops,
            self.bus_busy_cycles
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counts_accumulate_and_fraction() {
        let mut c = AccessCounts::new();
        for _ in 0..3 {
            c.record(AccessClass::LocalHit);
        }
        c.record(AccessClass::RemoteMiss);
        assert_eq!(c.total(), 4);
        assert!((c.local_hit_ratio() - 0.75).abs() < 1e-12);
        assert!((c.fraction(AccessClass::RemoteMiss) - 0.25).abs() < 1e-12);
        assert_eq!(c.fraction(AccessClass::Combined), 0.0);
    }

    #[test]
    fn empty_ratios_are_zero() {
        let c = AccessCounts::new();
        assert_eq!(c.local_hit_ratio(), 0.0);
        assert_eq!(c.total(), 0);
    }

    #[test]
    fn scaling_and_addition() {
        let mut a = SimStats {
            compute_cycles: 10,
            stall_cycles: 5,
            coherence_violations: 1,
            comm_ops: 2,
            iterations: 4,
            ..SimStats::default()
        };
        a.accesses.record(AccessClass::LocalHit);
        let doubled = a.scaled(2);
        assert_eq!(doubled.total_cycles(), 30);
        assert_eq!(doubled.accesses.get(AccessClass::LocalHit), 2);
        let sum = doubled + a;
        assert_eq!(sum.compute_cycles, 30);
        assert_eq!(sum.iterations, 12);
    }

    #[test]
    fn cluster_counts_are_dense_and_grow() {
        let mut c = ClusterCounts::new(2);
        c.add(0, 3);
        c.add(1, 1);
        c.add(5, 2); // beyond the initial size
        assert_eq!(c.get(0), 3);
        assert_eq!(c.get(5), 2);
        assert_eq!(c.get(9), 0);
        assert_eq!(c.total(), 6);
        assert_eq!(c.as_slice(), &[3, 1, 0, 0, 0, 2]);
    }

    #[test]
    fn bus_busy_scales_and_adds() {
        let a = SimStats {
            bus_busy_cycles: 7,
            ..SimStats::default()
        };
        assert_eq!(a.scaled(3).bus_busy_cycles, 21);
        assert_eq!((a.scaled(3) + a).bus_busy_cycles, 28);
        assert!(a.to_string().contains("bus_busy=7"));
    }

    #[test]
    fn cluster_usage_imbalance_and_merge() {
        let mut a = ClusterUsage {
            accesses: vec![AccessCounts::new(); 4],
            ..ClusterUsage::default()
        };
        assert_eq!(a.imbalance(), 1.0, "empty usage is balanced");
        for _ in 0..6 {
            a.accesses[0].record(AccessClass::LocalHit);
        }
        for c in 1..4 {
            a.accesses[c].record(AccessClass::RemoteHit);
            a.accesses[c].record(AccessClass::RemoteMiss);
        }
        // totals [6, 2, 2, 2]: max 6 over mean 3 → 2.0.
        assert!((a.imbalance() - 2.0).abs() < 1e-12);
        assert_eq!(a.accesses_of(0), 6);
        assert_eq!(a.accesses_of(9), 0);

        a.violations.add(1, 5);
        a.mem_bus_grants = 10;
        a.next_level_grants = 3;
        let doubled = a.clone().scaled(2);
        assert_eq!(doubled.accesses_of(0), 12);
        assert_eq!(doubled.violations.get(1), 10);
        assert_eq!(doubled.mem_bus_grants, 20);

        let mut merged = a.clone();
        merged += &doubled;
        assert_eq!(merged.accesses_of(0), 18);
        assert_eq!(merged.violations.get(1), 15);
        assert_eq!(merged.next_level_grants, 9);
        // Merging a wider table grows the narrower one.
        let mut narrow = ClusterUsage::default();
        narrow += &a;
        assert_eq!(narrow.accesses.len(), 4);
        assert_eq!(narrow.accesses_of(3), 2);
    }

    #[test]
    fn cluster_counts_scale() {
        let mut c = ClusterCounts::new(2);
        c.add(0, 4);
        c.add(1, 1);
        assert_eq!(c.scaled(3).as_slice(), &[12, 3]);
    }

    #[test]
    #[should_panic(expected = "overflows u64")]
    fn scaling_past_u64_panics() {
        let a = SimStats {
            compute_cycles: 1 << 32,
            ..SimStats::default()
        };
        let _ = a.scaled(1 << 32);
    }

    #[test]
    fn display_mentions_all_classes() {
        let mut s = SimStats::default();
        s.accesses.record(AccessClass::Combined);
        let text = s.to_string();
        assert!(text.contains("combined=1"));
        assert!(text.contains("violations=0"));
    }
}
