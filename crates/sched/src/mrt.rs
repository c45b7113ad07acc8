//! Modulo reservation tables: per-cluster functional units and the shared
//! register-to-register buses.
//!
//! The table is *transactional*: every reservation is recorded in a
//! journal of touched cells, so a failed placement trial is undone with
//! [`Mrt::rollback`] instead of cloning the whole table per trial — the
//! scheduler's innermost loop commits one candidate `(cluster, cycle)`
//! placement per call, so a clone per trial would dominate its cost.
//!
//! The register buses also keep a bitset of *open* slots (occupancy below
//! the bus count) next to their counts, so [`Mrt::find_bus_slot`] tests
//! 64 candidate start cycles per word operation instead of probing
//! every covered slot of every candidate.

use distvliw_arch::MachineConfig;
use distvliw_ir::FuClass;

/// One journaled reservation (or targeted un-reservation — the
/// ejection scheduler releases individual cells of *committed*
/// placements, and those releases must themselves roll back when the
/// surrounding ejection chain is rejected).
#[derive(Debug, Clone, Copy)]
enum Reservation {
    /// A functional-unit slot: cluster, class index, slot.
    Fu(u32, u8, u32),
    /// A register-bus transfer starting at this cycle (covers
    /// `bus_latency` slots).
    Bus(u32),
    /// Inverse of [`Reservation::Fu`]: a released unit slot.
    FuRelease(u32, u8, u32),
    /// Inverse of [`Reservation::Bus`]: a released bus transfer.
    BusRelease(u32),
}

/// A position in the journal, returned by [`Mrt::checkpoint`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Checkpoint(usize);

/// Tracks resource usage modulo the initiation interval.
#[derive(Debug, Clone)]
pub struct Mrt {
    ii: u32,
    /// `fu[cluster][class][slot]` = operations issued.
    fu: Vec<[Vec<u32>; 3]>,
    fu_cap: [u32; 3],
    /// Reserved operations per cluster (all classes), maintained
    /// incrementally for the MinComs balance tie-break.
    cluster_ops: Vec<u32>,
    /// `bus[slot]` = register-bus occupancy (a transfer occupies
    /// `bus_latency` consecutive slots).
    bus: Vec<u32>,
    /// Bit `s`, `s + II` and `s + 2·II` are set iff `bus[s] < bus_cap`:
    /// three back-to-back copies of the II-slot ring, so the slots a
    /// [`Mrt::find_bus_slot`] query reads (at most II starts from any
    /// residue, each covering at most II slots) never wrap. One spare
    /// word keeps the two-word window read in bounds.
    bus_open: Vec<u64>,
    bus_cap: u32,
    bus_latency: u32,
    journal: Vec<Reservation>,
}

impl Mrt {
    /// Creates an empty table for the given machine and II.
    ///
    /// # Panics
    ///
    /// Panics if `ii` is zero.
    #[must_use]
    pub fn new(machine: &MachineConfig, ii: u32) -> Self {
        let mut mrt = Mrt {
            ii,
            fu: (0..machine.n_clusters)
                .map(|_| [Vec::new(), Vec::new(), Vec::new()])
                .collect(),
            fu_cap: [
                machine.fu.integer as u32,
                machine.fu.fp as u32,
                machine.fu.memory as u32,
            ],
            cluster_ops: vec![0; machine.n_clusters],
            bus: Vec::new(),
            bus_open: Vec::new(),
            bus_cap: machine.reg_buses.count as u32,
            bus_latency: machine.reg_buses.latency,
            journal: Vec::new(),
        };
        mrt.reset(ii);
        mrt
    }

    /// Empties the table and rebuilds it for initiation interval `ii`,
    /// keeping its buffers: the scheduler reuses one table for every
    /// placement pass of a search.
    ///
    /// # Panics
    ///
    /// Panics if `ii` is zero.
    pub(crate) fn reset(&mut self, ii: u32) {
        assert!(ii > 0, "II must be positive");
        let slots = ii as usize;
        self.ii = ii;
        for class in self.fu.iter_mut().flatten() {
            class.clear();
            class.resize(slots, 0);
        }
        self.cluster_ops.fill(0);
        self.bus.clear();
        self.bus.resize(slots, 0);
        self.bus_open.clear();
        self.bus_open.resize(3 * slots / 64 + 2, 0);
        self.journal.clear();
        for slot in 0..slots {
            self.sync_open(slot);
        }
    }

    /// The initiation interval this table was built for.
    #[must_use]
    pub fn ii(&self) -> u32 {
        self.ii
    }

    fn slot(&self, cycle: u32) -> usize {
        (cycle % self.ii) as usize
    }

    /// Marks the current state; reservations made after this point can be
    /// undone with [`Mrt::rollback`] or made permanent with
    /// [`Mrt::commit`].
    #[must_use]
    pub fn checkpoint(&self) -> Checkpoint {
        Checkpoint(self.journal.len())
    }

    /// Undoes every reservation made since `mark`.
    ///
    /// # Panics
    ///
    /// Panics if `mark` does not come from this table's current epoch
    /// (i.e. reservations before it were already rolled back).
    pub fn rollback(&mut self, mark: Checkpoint) {
        assert!(mark.0 <= self.journal.len(), "stale checkpoint");
        while self.journal.len() > mark.0 {
            match self.journal.pop().expect("journal entry") {
                Reservation::Fu(cluster, class, slot) => {
                    self.fu[cluster as usize][class as usize][slot as usize] -= 1;
                    self.cluster_ops[cluster as usize] -= 1;
                }
                Reservation::Bus(cycle) => self.bus_sub(cycle),
                Reservation::FuRelease(cluster, class, slot) => {
                    self.fu[cluster as usize][class as usize][slot as usize] += 1;
                    self.cluster_ops[cluster as usize] += 1;
                }
                Reservation::BusRelease(cycle) => self.bus_add(cycle),
            }
        }
    }

    /// Accepts every reservation made since `mark`, truncating the
    /// journal so the next trial starts clean.
    pub fn commit(&mut self, mark: Checkpoint) {
        assert!(mark.0 <= self.journal.len(), "stale checkpoint");
        self.journal.truncate(mark.0);
    }

    /// Whether a `class` unit in `cluster` is free at `cycle`.
    #[must_use]
    pub fn fu_free(&self, cluster: usize, class: FuClass, cycle: u32) -> bool {
        let slot = self.slot(cycle);
        self.fu[cluster][class.index()][slot] < self.fu_cap[class.index()]
    }

    /// Reserves a `class` unit in `cluster` at `cycle`.
    ///
    /// # Panics
    ///
    /// Panics if the unit is already fully subscribed at that slot.
    pub fn reserve_fu(&mut self, cluster: usize, class: FuClass, cycle: u32) {
        assert!(self.fu_free(cluster, class, cycle), "FU oversubscribed");
        let slot = self.slot(cycle);
        self.fu[cluster][class.index()][slot] += 1;
        self.cluster_ops[cluster] += 1;
        self.journal.push(Reservation::Fu(
            cluster as u32,
            class.index() as u8,
            slot as u32,
        ));
    }

    /// Releases a previously committed `class` reservation in `cluster`
    /// at `cycle` — the ejection scheduler un-reserving an evicted op's
    /// unit. The release is journaled, so rolling back past it restores
    /// the reservation.
    ///
    /// # Panics
    ///
    /// Panics if no reservation is held at that cell.
    pub fn release_fu(&mut self, cluster: usize, class: FuClass, cycle: u32) {
        let slot = self.slot(cycle);
        assert!(
            self.fu[cluster][class.index()][slot] > 0,
            "releasing an empty FU cell"
        );
        self.fu[cluster][class.index()][slot] -= 1;
        self.cluster_ops[cluster] -= 1;
        self.journal.push(Reservation::FuRelease(
            cluster as u32,
            class.index() as u8,
            slot as u32,
        ));
    }

    /// Releases a previously committed bus transfer starting at `cycle`
    /// (all `bus_latency` covered slots). Journaled like
    /// [`Mrt::release_fu`].
    ///
    /// # Panics
    ///
    /// Panics if any covered slot holds no transfer.
    pub fn release_bus(&mut self, cycle: u32) {
        self.bus_sub(cycle);
        self.journal.push(Reservation::BusRelease(cycle));
    }

    /// Total operations currently reserved in `cluster` (for workload
    /// balance in the MinComs cost function).
    #[must_use]
    pub fn cluster_load(&self, cluster: usize) -> u32 {
        self.cluster_ops[cluster]
    }

    /// Flat snapshot of every occupancy cell (all FU cells in
    /// cluster/class/slot order, then the bus slots, then the per-cluster
    /// op counts). Two tables with equal snapshots hold identical
    /// reservations — the ejection tests use this to prove a rejected
    /// ejection chain rolls back byte-identically.
    #[must_use]
    pub fn cells(&self) -> Vec<u32> {
        let mut out = Vec::new();
        for cluster in &self.fu {
            for class in cluster {
                out.extend_from_slice(class);
            }
        }
        out.extend_from_slice(&self.bus);
        out.extend_from_slice(&self.cluster_ops);
        out
    }

    /// Whether a register-bus transfer may start at `cycle` (it occupies
    /// the bus for the bus latency).
    #[must_use]
    pub fn bus_free(&self, cycle: u32) -> bool {
        (0..self.bus_latency).all(|i| self.bus[self.slot(cycle + i)] < self.bus_cap)
    }

    /// Reserves a register-bus transfer starting at `cycle`.
    ///
    /// # Panics
    ///
    /// Panics if the buses are full for any covered slot.
    pub fn reserve_bus(&mut self, cycle: u32) {
        assert!(self.bus_free(cycle), "register buses oversubscribed");
        self.bus_add(cycle);
        self.journal.push(Reservation::Bus(cycle));
    }

    /// Earliest cycle in `[from, to]` at which a bus transfer can start
    /// ([`Mrt::bus_free`]), if any.
    #[must_use]
    pub fn find_bus_slot(&self, from: u32, to: u32) -> Option<u32> {
        if from > to {
            return None;
        }
        // Only II distinct residues exist: start `from + II` fits iff
        // `from` does, so at most II starts need testing.
        let starts = (to - from).min(self.ii - 1) as usize + 1;
        let first = self.slot(from);
        let covered = self.bus_latency.min(self.ii) as usize;
        for base in (0..starts).step_by(64) {
            // Bit j: start `from + base + j` finds every covered slot open.
            let mut fits = !0u64;
            for k in 0..covered {
                fits &= self.open_window(first + base + k);
                if fits == 0 {
                    break;
                }
            }
            if starts - base < 64 {
                fits &= (1 << (starts - base)) - 1;
            }
            if fits != 0 {
                return Some(from + (base + fits.trailing_zeros() as usize) as u32);
            }
        }
        None
    }

    /// Open-slot bits `pos..pos + 64` of the unrolled ring, bit 0 first.
    fn open_window(&self, pos: usize) -> u64 {
        let (word, shift) = (pos / 64, pos % 64);
        let low = self.bus_open[word] >> shift;
        if shift == 0 {
            low
        } else {
            low | self.bus_open[word + 1] << (64 - shift)
        }
    }

    /// Re-derives the open bits of `slot` from its count.
    fn sync_open(&mut self, slot: usize) {
        let open = self.bus[slot] < self.bus_cap;
        for bit in [slot, slot + self.bus.len(), slot + 2 * self.bus.len()] {
            let mask = 1 << (bit % 64);
            if open {
                self.bus_open[bit / 64] |= mask;
            } else {
                self.bus_open[bit / 64] &= !mask;
            }
        }
    }

    /// Adds one transfer starting at `cycle` to the bus counts.
    fn bus_add(&mut self, cycle: u32) {
        for i in 0..self.bus_latency {
            let slot = self.slot(cycle + i);
            self.bus[slot] += 1;
            self.sync_open(slot);
        }
    }

    /// Removes one transfer starting at `cycle` from the bus counts.
    fn bus_sub(&mut self, cycle: u32) {
        for i in 0..self.bus_latency {
            let slot = self.slot(cycle + i);
            assert!(self.bus[slot] > 0, "releasing an empty bus slot");
            self.bus[slot] -= 1;
            self.sync_open(slot);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::test_runner::TestRng;

    fn machine() -> MachineConfig {
        MachineConfig::paper_baseline()
    }

    /// The per-start probe scan [`Mrt::find_bus_slot`] replaced: the
    /// oracle its bitset search must agree with.
    fn scan_bus_slot(mrt: &Mrt, from: u32, to: u32) -> Option<u32> {
        if from > to {
            return None;
        }
        let limit = to.min(from.saturating_add(mrt.ii));
        (from..=limit).find(|&c| mrt.bus_free(c))
    }

    #[test]
    fn bus_bitset_search_matches_the_scan() {
        let mut rng = TestRng::for_test("bus_bitset_search_matches_the_scan");
        let mut iis: Vec<u32> = (1..=8).chain([63, 64, 65, 127, 128, 129, 300]).collect();
        iis.extend((0..20).map(|_| 1 + rng.below(300) as u32));
        for ii in iis {
            let ii64 = u64::from(ii);
            let mut machine = machine();
            // Latencies past II cover wrapped (every-slot) transfers.
            machine.reg_buses.latency = 1 + rng.below(ii64 + 3) as u32;
            machine.reg_buses.count = 1 + rng.below(4) as usize;
            let mut mrt = Mrt::new(&machine, ii);
            // Start cycles of the transfers held, and each open
            // checkpoint with the cells and holdings it must restore.
            let mut held: Vec<u32> = Vec::new();
            let mut marks: Vec<(Checkpoint, Vec<u32>, Vec<u32>)> = Vec::new();
            for _ in 0..150 {
                match rng.below(8) {
                    0..=2 => {
                        let from = rng.below(3 * ii64) as u32;
                        if let Some(c) = mrt.find_bus_slot(from, from + ii) {
                            mrt.reserve_bus(c);
                            held.push(c);
                        }
                    }
                    3 if !held.is_empty() => {
                        let c = held.swap_remove(rng.below(held.len() as u64) as usize);
                        mrt.release_bus(c);
                    }
                    4 => marks.push((mrt.checkpoint(), mrt.cells(), held.clone())),
                    5 => {
                        if let Some((mark, cells, before)) = marks.pop() {
                            mrt.rollback(mark);
                            assert_eq!(mrt.cells(), cells, "II={ii}: rollback");
                            held = before;
                        }
                    }
                    6 => {
                        if let Some((mark, ..)) = marks.pop() {
                            mrt.commit(mark);
                            // Outer checkpoints no longer undo to their
                            // snapshots: the committed work is permanent.
                            marks.clear();
                        }
                    }
                    _ => {}
                }
                for _ in 0..6 {
                    let from = rng.below(4 * ii64) as u32;
                    // Windows from empty (`from > to`) to wider than II.
                    let to = (i64::from(from) + rng.below(2 * ii64 + 10) as i64 - 5).max(0) as u32;
                    assert_eq!(
                        mrt.find_bus_slot(from, to),
                        scan_bus_slot(&mrt, from, to),
                        "II={ii} {:?} window [{from}, {to}]",
                        machine.reg_buses
                    );
                }
            }
        }
    }

    #[test]
    fn fu_capacity_is_per_cluster_per_slot() {
        let mut mrt = Mrt::new(&machine(), 2);
        assert!(mrt.fu_free(0, FuClass::Memory, 0));
        mrt.reserve_fu(0, FuClass::Memory, 0);
        assert!(!mrt.fu_free(0, FuClass::Memory, 0));
        // Same slot, other cluster: free.
        assert!(mrt.fu_free(1, FuClass::Memory, 0));
        // Other slot, same cluster: free.
        assert!(mrt.fu_free(0, FuClass::Memory, 1));
        // Modulo wrap: cycle 2 hits slot 0 again.
        assert!(!mrt.fu_free(0, FuClass::Memory, 2));
    }

    #[test]
    #[should_panic(expected = "oversubscribed")]
    fn fu_over_reservation_panics() {
        let mut mrt = Mrt::new(&machine(), 2);
        mrt.reserve_fu(0, FuClass::Integer, 0);
        mrt.reserve_fu(0, FuClass::Integer, 2); // slot 0 again
    }

    #[test]
    fn bus_occupies_latency_slots() {
        let mut mrt = Mrt::new(&machine(), 4);
        // 4 buses, latency 2: starting at cycle 1 occupies slots 1 and 2.
        for _ in 0..4 {
            mrt.reserve_bus(1);
        }
        assert!(!mrt.bus_free(1));
        assert!(!mrt.bus_free(2)); // would need slot 2..3; slot 2 full
        assert!(mrt.bus_free(3)); // slots 3 and 0 free
        assert!(!mrt.bus_free(0)); // slot 0 free but slot 1 full
    }

    #[test]
    fn find_bus_slot_scans_window() {
        let mut mrt = Mrt::new(&machine(), 4);
        for _ in 0..4 {
            mrt.reserve_bus(0);
        }
        // Slots 0 and 1 are saturated; the first start that fits latency 2
        // is cycle 2 (slots 2,3).
        assert_eq!(mrt.find_bus_slot(0, 10), Some(2));
        assert_eq!(mrt.find_bus_slot(3, 3), None); // would cover slots 3,0
        assert_eq!(mrt.find_bus_slot(5, 4), None); // empty window
    }

    #[test]
    fn cluster_load_counts_all_classes() {
        let mut mrt = Mrt::new(&machine(), 3);
        mrt.reserve_fu(2, FuClass::Integer, 0);
        mrt.reserve_fu(2, FuClass::Memory, 1);
        mrt.reserve_fu(1, FuClass::Fp, 1);
        assert_eq!(mrt.cluster_load(2), 2);
        assert_eq!(mrt.cluster_load(1), 1);
        assert_eq!(mrt.cluster_load(0), 0);
    }

    #[test]
    fn ii_one_bus_wraps() {
        let mrt = Mrt::new(&machine(), 1);
        // With II=1 a 2-cycle transfer covers the single slot twice: needs
        // 2 units of the 4-bus capacity.
        assert!(mrt.bus_free(0));
    }

    #[test]
    #[should_panic(expected = "II must be positive")]
    fn zero_ii_rejected() {
        let _ = Mrt::new(&machine(), 0);
    }

    #[test]
    fn reset_equals_a_fresh_table() {
        // A used table reset to another II behaves as a new one: same
        // cells, same open bus slots, nothing left to roll back.
        let m = machine();
        let mut mrt = Mrt::new(&m, 7);
        mrt.reserve_fu(1, FuClass::Memory, 3);
        mrt.reserve_bus(5);
        mrt.reserve_bus(5);
        for ii in [3, 7, 70, 1] {
            mrt.reset(ii);
            let fresh = Mrt::new(&m, ii);
            assert_eq!(mrt.ii(), ii);
            assert_eq!(mrt.cells(), fresh.cells(), "II {ii}");
            for from in 0..2 * ii {
                assert_eq!(
                    mrt.find_bus_slot(from, from + ii),
                    fresh.find_bus_slot(from, from + ii)
                );
            }
            assert_eq!(mrt.checkpoint(), fresh.checkpoint());
            mrt.reserve_bus(0);
        }
    }

    #[test]
    fn rollback_undoes_everything_since_checkpoint() {
        let mut mrt = Mrt::new(&machine(), 4);
        mrt.reserve_fu(0, FuClass::Integer, 0);
        let mark = mrt.checkpoint();
        mrt.reserve_fu(0, FuClass::Integer, 1);
        mrt.reserve_fu(1, FuClass::Memory, 2);
        mrt.reserve_bus(1);
        mrt.rollback(mark);
        // Pre-checkpoint state intact, post-checkpoint state undone.
        assert!(!mrt.fu_free(0, FuClass::Integer, 0));
        assert!(mrt.fu_free(0, FuClass::Integer, 1));
        assert!(mrt.fu_free(1, FuClass::Memory, 2));
        assert_eq!(mrt.cluster_load(0), 1);
        assert_eq!(mrt.cluster_load(1), 0);
        for _ in 0..4 {
            mrt.reserve_bus(1); // all four buses free again
        }
    }

    #[test]
    fn commit_keeps_state_and_truncates_journal() {
        let mut mrt = Mrt::new(&machine(), 4);
        let mark = mrt.checkpoint();
        mrt.reserve_fu(3, FuClass::Fp, 2);
        mrt.reserve_bus(0);
        mrt.commit(mark);
        // Committed reservations survive a later rollback to `mark`.
        mrt.rollback(mark);
        assert!(!mrt.fu_free(3, FuClass::Fp, 2));
        assert_eq!(mrt.cluster_load(3), 1);
        // The committed bus transfer still occupies its slots: three more
        // transfers saturate the four buses at cycle 0.
        for _ in 0..3 {
            mrt.reserve_bus(0);
        }
        assert!(!mrt.bus_free(0));
    }

    #[test]
    fn release_undoes_a_committed_reservation() {
        let mut mrt = Mrt::new(&machine(), 4);
        mrt.reserve_fu(0, FuClass::Memory, 1);
        assert!(!mrt.fu_free(0, FuClass::Memory, 1));
        mrt.release_fu(0, FuClass::Memory, 1);
        assert!(mrt.fu_free(0, FuClass::Memory, 1));
        assert_eq!(mrt.cluster_load(0), 0);
        for _ in 0..4 {
            mrt.reserve_bus(2);
        }
        assert!(!mrt.bus_free(2));
        mrt.release_bus(2);
        assert!(mrt.bus_free(2));
    }

    #[test]
    fn rejected_ejection_chain_rolls_back_byte_identically() {
        // Simulate an ejection chain: targeted releases of committed
        // cells interleaved with fresh reservations, then a rejection.
        // The table must come back *byte-identical*, releases included.
        let mut mrt = Mrt::new(&machine(), 4);
        mrt.reserve_fu(0, FuClass::Memory, 1);
        mrt.reserve_fu(2, FuClass::Integer, 3);
        mrt.reserve_bus(2);
        let before = mrt.cells();
        let mark = mrt.checkpoint();
        mrt.release_fu(0, FuClass::Memory, 1);
        mrt.reserve_fu(0, FuClass::Memory, 5); // same class, other slot
        mrt.release_bus(2);
        mrt.reserve_bus(0);
        mrt.reserve_fu(1, FuClass::Fp, 0);
        assert_ne!(mrt.cells(), before);
        mrt.rollback(mark);
        assert_eq!(mrt.cells(), before, "rollback must restore releases too");
        assert!(!mrt.fu_free(0, FuClass::Memory, 1));
        assert_eq!(mrt.cluster_load(0), 1);
    }

    #[test]
    #[should_panic(expected = "empty FU cell")]
    fn releasing_an_empty_fu_cell_panics() {
        let mut mrt = Mrt::new(&machine(), 2);
        mrt.release_fu(0, FuClass::Integer, 0);
    }

    #[test]
    fn nested_checkpoints_roll_back_in_order() {
        let mut mrt = Mrt::new(&machine(), 2);
        let outer = mrt.checkpoint();
        mrt.reserve_fu(0, FuClass::Integer, 0);
        let inner = mrt.checkpoint();
        mrt.reserve_fu(1, FuClass::Integer, 0);
        mrt.rollback(inner);
        assert!(mrt.fu_free(1, FuClass::Integer, 0));
        assert!(!mrt.fu_free(0, FuClass::Integer, 0));
        mrt.rollback(outer);
        assert!(mrt.fu_free(0, FuClass::Integer, 0));
        assert_eq!(mrt.cluster_load(0), 0);
    }
}
