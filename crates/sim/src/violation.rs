//! Coherence-violation detection.
//!
//! The paper's baseline schedules memory instructions freely and is
//! therefore "optimistic (not real)": aliased accesses can reach the home
//! cluster out of sequential program order (paper Section 2.3, Figure 2).
//! Like the paper's trace-driven simulator, this simulator always returns
//! architecturally-correct values — but it additionally *counts* the
//! ordering violations a real machine would have suffered, making the
//! baseline's unsoundness observable and letting tests assert that MDC
//! and DDGT eliminate every violation.
//!
//! Two hazards are tracked per address:
//!
//! * **flow violation** — a load's home-module read happened before the
//!   program-order-latest prior store's update arrived (stale read);
//! * **anti violation** — a sequentially *later* store's update reached
//!   the home module at or before an earlier load's read (the load
//!   observed a too-new value).
//!
//! Accesses issued from the *same* cluster are exempt: in-order issue and
//! FIFO buses deliver them to the home cluster in program order (the
//! paper's serialization facts 1–3, Section 3.2); only cross-cluster
//! pairs can race.
//!
//! Detection is byte-range exact at a 2-byte granule: every granule an
//! access touches is tracked, so partially overlapping accesses of
//! different widths and alignments are caught.

use crate::fx::FxHashMap;
use crate::stats::ClusterCounts;

/// Tracking granule in bytes (the smallest access width).
const GRANULE: u64 = 2;

/// The granules a `[addr, addr + width)` access touches. The last byte
/// saturates at the top of the address space, so an access there never
/// wraps to an empty range.
fn granules(addr: u64, width: u64) -> impl Iterator<Item = u64> {
    addr / GRANULE..=addr.saturating_add(width.max(1) - 1) / GRANULE
}

/// Sliding window of recent accesses remembered per address; loop kernels
/// have short dependence distances, so a small window is exact in
/// practice.
const WINDOW: usize = 16;

/// A window stores each access's issuing cluster in one byte.
const _: () = assert!(distvliw_arch::MAX_CLUSTERS <= 1 << u8::BITS);

/// The byte a window stores for `cluster`.
///
/// # Panics
///
/// Panics if `cluster` does not fit in a byte; no machine has that many
/// clusters.
fn cluster_byte(cluster: usize) -> u8 {
    u8::try_from(cluster).expect("cluster id fits in a byte")
}

/// One recorded access: program order and home-module time. The issuing
/// cluster sits beside it in its window's byte array, so a record is 16
/// bytes with no padding.
#[derive(Debug, Clone, Copy, Default)]
struct Record {
    po: u64,
    time: u64,
}

/// A fixed-capacity window of recent accesses, evicted by smallest
/// program order. Program orders are unique per access, so the retained
/// *set* is determined by the insertions alone; queries are
/// set-semantics (existential / argmax over unique keys).
#[derive(Debug, Clone, Copy, Default)]
struct Window {
    records: [Record; WINDOW],
    clusters: [u8; WINDOW],
    len: u8,
}

impl Window {
    /// The resident accesses as `(program order, time, cluster)`.
    fn iter(&self) -> impl Iterator<Item = (u64, u64, u8)> + '_ {
        let n = usize::from(self.len);
        self.records[..n]
            .iter()
            .zip(&self.clusters[..n])
            .map(|(r, &c)| (r.po, r.time, c))
    }

    /// Inserts an access, evicting the smallest program order when full
    /// (which may be the new access itself).
    fn push(&mut self, po: u64, time: u64, cluster: u8) {
        let n = usize::from(self.len);
        let slot = if n < WINDOW {
            self.len += 1;
            n
        } else {
            let (min_idx, min) = self
                .records
                .iter()
                .enumerate()
                .min_by_key(|(_, r)| r.po)
                .expect("window is full, so nonempty");
            if po <= min.po {
                return;
            }
            min_idx
        };
        self.records[slot] = Record { po, time };
        self.clusters[slot] = cluster;
    }
}

/// The store and load windows of one granule, stored together so each
/// recorded access does a single lookup (check the opposite window, push
/// into its own).
#[derive(Debug, Clone, Copy, Default)]
struct GranuleWindows {
    stores: Window,
    loads: Window,
}

/// Counts memory-ordering violations.
///
/// Every touched granule owns one slot of a slab, assigned in
/// first-touch order; the hash map holds only each granule's 4-byte slot
/// index, so growing it never moves the windows themselves.
#[derive(Debug, Clone, Default)]
pub struct ViolationDetector {
    /// granule → its slot in `slab`.
    slots: FxHashMap<u64, u32>,
    /// Recent stores and loads of every touched granule.
    slab: Vec<GranuleWindows>,
    violations: u64,
    /// Violations attributed to the issuing cluster of the access that
    /// detected them (dense, no map).
    by_cluster: ClusterCounts,
}

impl ViolationDetector {
    /// Creates an empty detector.
    #[must_use]
    pub fn new() -> Self {
        ViolationDetector::default()
    }

    /// Number of ordering violations observed so far.
    #[must_use]
    pub fn violations(&self) -> u64 {
        self.violations
    }

    /// Violations split by the cluster that issued the detecting access.
    #[must_use]
    pub fn violations_by_cluster(&self) -> &ClusterCounts {
        &self.by_cluster
    }

    /// Number of distinct granules recorded so far.
    pub(crate) fn tracked_granules(&self) -> u64 {
        self.slab.len() as u64
    }

    /// The windows of granule `g`, allocating its slot on first touch.
    fn windows_mut(&mut self, g: u64) -> &mut GranuleWindows {
        let slab = &mut self.slab;
        let slot = *self.slots.entry(g).or_insert_with(|| {
            slab.push(GranuleWindows::default());
            u32::try_from(slab.len() - 1).expect("fewer than 2^32 granules per kernel")
        });
        &mut self.slab[slot as usize]
    }

    /// Records a store to `addr` with sequential program order `po` whose
    /// home module performs the write at `write_time`; counts an anti
    /// violation for every earlier load whose read had not yet been
    /// performed when this write landed.
    ///
    /// # Panics
    ///
    /// Panics if `cluster` does not fit in a byte.
    pub fn record_store(
        &mut self,
        addr: u64,
        width: u64,
        po: u64,
        write_time: u64,
        cluster: usize,
    ) {
        let c_self = cluster_byte(cluster);
        let mut violated = false;
        for g in granules(addr, width) {
            let w = self.windows_mut(g);
            // Non-short-circuit `&`/`|` keep the scan free of
            // data-dependent branches, which would mispredict constantly.
            violated |= w.loads.iter().fold(false, |hit, (p, read, c)| {
                hit | ((c != c_self) & (p < po) & (read >= write_time))
            });
            w.stores.push(po, write_time, c_self);
        }
        self.violations += u64::from(violated);
        if violated {
            self.by_cluster.add(cluster, 1);
        }
    }

    /// Records a load from `addr` with program order `po` whose home
    /// module performs the read at `read_time`; counts a flow violation
    /// if the program-order-latest prior store had not yet written, or an
    /// anti violation if a later store had already overwritten the value.
    ///
    /// # Panics
    ///
    /// Panics if `cluster` does not fit in a byte.
    pub fn record_load(&mut self, addr: u64, width: u64, po: u64, read_time: u64, cluster: usize) {
        let c_self = cluster_byte(cluster);
        let mut violated = false;
        for g in granules(addr, width) {
            let w = self.windows_mut(g);
            // One pass, again without short-circuit conditions: `stale`
            // follows the program-order-latest prior store (the last of
            // equal maxima), `overwritten` is any later store that
            // already wrote.
            let (mut latest, mut stale, mut overwritten) = (None, false, false);
            for (p, write, c) in w.stores.iter() {
                let other = c != c_self;
                if (p < po) & latest.is_none_or(|l| p >= l) {
                    latest = Some(p);
                    stale = other & (write > read_time);
                }
                overwritten |= other & (p > po) & (write <= read_time);
            }
            violated |= stale | overwritten;
            w.loads.push(po, read_time, c_self);
        }
        self.violations += u64::from(violated);
        if violated {
            self.by_cluster.add(cluster, 1);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn in_order_arrival_is_clean() {
        let mut d = ViolationDetector::new();
        d.record_store(100, 4, 1, 10, 3);
        d.record_load(100, 4, 2, 11, 0);
        assert_eq!(d.violations(), 0);
    }

    #[test]
    fn late_store_is_a_flow_violation() {
        let mut d = ViolationDetector::new();
        // Store reaches the home module at t=20, but the aliased load read
        // at t=12: stale value (the paper's Figure 2 scenario).
        d.record_store(100, 4, 1, 20, 3);
        d.record_load(100, 4, 2, 12, 0);
        assert_eq!(d.violations(), 1);
    }

    #[test]
    fn early_later_store_is_an_anti_violation_at_load() {
        let mut d = ViolationDetector::new();
        // The store is sequentially after the load but its update arrived
        // first: the load reads a too-new value.
        d.record_store(100, 4, 5, 1, 3);
        d.record_load(100, 4, 2, 3, 0);
        assert_eq!(d.violations(), 1);
    }

    #[test]
    fn anti_violation_detected_at_store_time() {
        let mut d = ViolationDetector::new();
        // Load (po 2) reads at t=6; a later store (po 5) writes at t=4 —
        // the load will observe the new value. The load is recorded
        // first (issue order), the store detects the hazard.
        d.record_load(100, 4, 2, 6, 0);
        d.record_store(100, 4, 5, 4, 3);
        assert_eq!(d.violations(), 1);
    }

    #[test]
    fn store_after_load_read_is_clean() {
        let mut d = ViolationDetector::new();
        d.record_load(100, 4, 2, 3, 0);
        d.record_store(100, 4, 5, 4, 3); // writes after the read: fine
        assert_eq!(d.violations(), 0);
    }

    #[test]
    fn loads_before_any_store_are_clean() {
        let mut d = ViolationDetector::new();
        d.record_load(100, 4, 0, 5, 0);
        d.record_store(100, 4, 1, 10, 3);
        assert_eq!(d.violations(), 0);
    }

    #[test]
    fn latest_prior_store_decides_flow() {
        let mut d = ViolationDetector::new();
        d.record_store(100, 4, 1, 5, 3); // early store, already arrived
        d.record_store(100, 4, 3, 50, 3); // the latest prior store is late
        d.record_load(100, 4, 4, 10, 0);
        assert_eq!(d.violations(), 1);
    }

    #[test]
    fn distinct_addresses_do_not_interact() {
        let mut d = ViolationDetector::new();
        d.record_store(100, 4, 1, 100, 3);
        d.record_load(104, 4, 2, 1, 0);
        assert_eq!(d.violations(), 0);
    }

    #[test]
    fn window_eviction_keeps_recent_program_order() {
        let mut d = ViolationDetector::new();
        for po in 0..50 {
            d.record_store(8, 4, po, po, 3);
        }
        // po=49 store wrote at t=49; load at read_time 48 sees it late.
        d.record_load(8, 4, 50, 48, 0);
        assert_eq!(d.violations(), 1);
    }

    #[test]
    fn partial_overlap_is_detected() {
        // A 4-byte store at 5 and a 2-byte load at 8 share byte 8.
        let mut d = ViolationDetector::new();
        d.record_store(5, 4, 1, 20, 3);
        d.record_load(8, 2, 2, 12, 0);
        assert_eq!(d.violations(), 1);
    }

    #[test]
    fn disjoint_ranges_do_not_collide() {
        let mut d = ViolationDetector::new();
        d.record_store(0, 4, 1, 20, 3);
        d.record_load(4, 4, 2, 12, 0);
        assert_eq!(d.violations(), 0);
    }

    #[test]
    fn same_cluster_pairs_are_exempt() {
        // In-order issue serializes same-cluster accesses regardless of
        // modelled timing (paper Section 3.2, fact 1).
        let mut d = ViolationDetector::new();
        d.record_store(100, 4, 1, 20, 2);
        d.record_load(100, 4, 2, 12, 2);
        assert_eq!(d.violations(), 0);
    }

    #[test]
    fn window_never_exceeds_capacity_and_keeps_newest() {
        let mut w = Window::default();
        for po in 0..40u64 {
            w.push(po, po, 0);
        }
        assert_eq!(w.iter().count(), WINDOW);
        // The retained set is the WINDOW largest program orders.
        let mut pos: Vec<u64> = w.iter().map(|(p, _, _)| p).collect();
        pos.sort_unstable();
        assert_eq!(pos, (24..40).collect::<Vec<_>>());
        // An entry older than everything resident is dropped outright.
        w.push(1, 1, 0);
        assert!(!w.iter().any(|(p, _, _)| p == 1));
    }

    #[test]
    fn records_round_trip_the_widest_values() {
        // The engine numbers accesses `iteration × body span + seq`, with
        // `seq` a u32 and fewer iterations than the largest trip a kernel
        // may have: this is the largest order it can produce.
        let max_po = distvliw_ir::MAX_TRIP_COUNT * (1 << u32::BITS) - 1;
        let mut w = Window::default();
        w.push(max_po, u64::MAX, 63);
        w.push(u64::MAX, 7, 62);
        assert_eq!(
            w.iter().collect::<Vec<_>>(),
            [(max_po, u64::MAX, 63), (u64::MAX, 7, 62)]
        );

        // Cluster 63 against cluster 0 races; against itself it is exempt.
        let mut d = ViolationDetector::new();
        d.record_store(100, 4, max_po - 2, u64::MAX, 63);
        d.record_load(100, 4, max_po - 1, u64::MAX - 1, 63);
        assert_eq!(d.violations(), 0);
        d.record_load(100, 4, max_po, u64::MAX - 1, 0);
        assert_eq!(d.violations(), 1);
        assert_eq!(d.violations_by_cluster().get(0), 1);
    }

    #[test]
    fn one_granule_fits_in_560_bytes() {
        assert_eq!(std::mem::size_of::<Record>(), 16);
        assert!(std::mem::size_of::<GranuleWindows>() <= 560);
    }

    #[test]
    fn accesses_at_the_top_of_the_address_space_are_tracked() {
        let mut d = ViolationDetector::new();
        d.record_store(u64::MAX - 1, 4, 1, 20, 3);
        d.record_load(u64::MAX - 1, 4, 2, 12, 0);
        assert_eq!(d.violations(), 1);
        assert_eq!(granules(u64::MAX, 8).collect::<Vec<_>>(), [u64::MAX / 2]);
    }

    #[test]
    fn violations_attribute_to_issuing_cluster() {
        let mut d = ViolationDetector::new();
        d.record_store(100, 4, 1, 20, 3);
        d.record_load(100, 4, 2, 12, 0); // cluster 0 reads stale data
        assert_eq!(d.violations(), 1);
        assert_eq!(d.violations_by_cluster().get(0), 1);
        assert_eq!(d.violations_by_cluster().get(3), 0);
        assert_eq!(d.violations_by_cluster().total(), d.violations());
    }

    #[test]
    fn one_violation_per_offending_load() {
        let mut d = ViolationDetector::new();
        // Both a stale prior store and an early later store: still one
        // violation for this load.
        d.record_store(100, 4, 1, 30, 3);
        d.record_store(100, 4, 9, 2, 3);
        d.record_load(100, 4, 4, 10, 0);
        assert_eq!(d.violations(), 1);
    }

    /// The map-of-inline-windows detector the slab layout replaced: the
    /// oracle it must agree with. Its granule range wraps at the top of
    /// the address space, so it is only driven below that.
    mod reference {
        use crate::fx::FxHashMap;
        use crate::stats::ClusterCounts;

        use super::{GRANULE, WINDOW};

        type Access = (u64, u64, usize);

        #[derive(Clone, Copy)]
        struct Window {
            entries: [Access; WINDOW],
            len: usize,
        }

        impl Default for Window {
            fn default() -> Self {
                Window {
                    entries: [(0, 0, 0); WINDOW],
                    len: 0,
                }
            }
        }

        impl Window {
            fn as_slice(&self) -> &[Access] {
                &self.entries[..self.len]
            }

            fn push(&mut self, entry: Access) {
                if self.len < WINDOW {
                    self.entries[self.len] = entry;
                    self.len += 1;
                    return;
                }
                let (min_idx, &(min_po, _, _)) = self
                    .entries
                    .iter()
                    .enumerate()
                    .min_by_key(|&(_, &(p, _, _))| p)
                    .expect("window is full, so nonempty");
                if entry.0 > min_po {
                    self.entries[min_idx] = entry;
                }
            }
        }

        #[derive(Clone, Copy, Default)]
        struct GranuleWindows {
            stores: Window,
            loads: Window,
        }

        #[derive(Default)]
        pub(super) struct Detector {
            windows: FxHashMap<u64, GranuleWindows>,
            pub(super) violations: u64,
            pub(super) by_cluster: ClusterCounts,
        }

        fn granules(addr: u64, width: u64) -> impl Iterator<Item = u64> {
            (addr / GRANULE)..(addr + width.max(1)).div_ceil(GRANULE)
        }

        impl Detector {
            pub(super) fn record_store(
                &mut self,
                addr: u64,
                width: u64,
                po: u64,
                write_time: u64,
                cluster: usize,
            ) {
                let mut violated = false;
                for g in granules(addr, width) {
                    let w = self.windows.entry(g).or_default();
                    violated |= w
                        .loads
                        .as_slice()
                        .iter()
                        .any(|&(p, read, c)| c != cluster && p < po && read >= write_time);
                    w.stores.push((po, write_time, cluster));
                }
                self.violations += u64::from(violated);
                if violated {
                    self.by_cluster.add(cluster, 1);
                }
            }

            pub(super) fn record_load(
                &mut self,
                addr: u64,
                width: u64,
                po: u64,
                read_time: u64,
                cluster: usize,
            ) {
                let mut violated = false;
                for g in granules(addr, width) {
                    let w = self.windows.entry(g).or_default();
                    let window = w.stores.as_slice();
                    let stale = window
                        .iter()
                        .filter(|&&(p, _, _)| p < po)
                        .max_by_key(|&&(p, _, _)| p)
                        .is_some_and(|&(_, write, c)| c != cluster && write > read_time);
                    let overwritten = window
                        .iter()
                        .any(|&(p, write, c)| c != cluster && p > po && write <= read_time);
                    violated |= stale || overwritten;
                    w.loads.push((po, read_time, cluster));
                }
                self.violations += u64::from(violated);
                if violated {
                    self.by_cluster.add(cluster, 1);
                }
            }
        }
    }

    #[test]
    fn slab_detector_matches_the_reference() {
        use proptest::test_runner::TestRng;

        let mut rng = TestRng::for_test("slab_detector_matches_the_reference");
        let mut total = 0;
        for case in 0..24 {
            // A handful of hot byte addresses at odd alignments, so every
            // granule sees far more than WINDOW accesses; case 0 sits
            // just below the reference's overflow.
            let base = if case == 0 {
                u64::MAX - 64
            } else {
                rng.below(1 << 40)
            };
            let hot: Vec<u64> = (0..1 + rng.below(6))
                .map(|_| base + rng.below(24))
                .collect();
            // Unique program orders arriving out of order: a shuffle
            // within small blocks of the sequence.
            let n = 600 + rng.below(600);
            let mut pos: Vec<u64> = (0..n).collect();
            for block in pos.chunks_mut(1 + rng.below(12) as usize) {
                for i in (1..block.len()).rev() {
                    block.swap(i, rng.below(i as u64 + 1) as usize);
                }
            }
            let mut d = ViolationDetector::new();
            let mut r = reference::Detector::default();
            for po in pos {
                let addr = hot[rng.below(hot.len() as u64) as usize];
                let width = [1, 2, 4, 8][rng.below(4) as usize];
                // Home-module times loosely follow program order, so
                // both early and late arrivals occur.
                let time = po + rng.below(24);
                let cluster = rng.below(64) as usize;
                if rng.below(2) == 0 {
                    d.record_store(addr, width, po, time, cluster);
                    r.record_store(addr, width, po, time, cluster);
                } else {
                    d.record_load(addr, width, po, time, cluster);
                    r.record_load(addr, width, po, time, cluster);
                }
                assert_eq!(d.violations(), r.violations, "case {case} po {po}");
                assert_eq!(
                    d.violations_by_cluster(),
                    &r.by_cluster,
                    "case {case} po {po}"
                );
            }
            total += d.violations();
        }
        assert!(total > 0, "the sequences must exercise the rule");
    }
}
