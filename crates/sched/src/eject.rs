//! Ejection (backtracking) policy for the modulo scheduler.
//!
//! The restart-only II search resolved every placement failure by
//! abandoning the II and re-running the whole placement from scratch one
//! II higher — so a single hard-to-place node (typically a memory op
//! whose MDC chain or DDGT pin confines it to one congested cluster)
//! cost a full pass per II. Iterative modulo scheduling (Rau) instead
//! *ejects* the ops blocking the failed node, re-places the node, and
//! re-enqueues the victims at the back of the worklist; the II is only
//! bumped once the ejection budget for the current II is exhausted.
//!
//! This module holds the policy pieces — the eviction record that makes
//! an ejection chain rejectable, and the per-II budget — while the
//! mechanics (which ops conflict, how reservations are released) live
//! with the placer in `scheduler.rs`. A rejected chain must restore the
//! scheduler state *exactly*: side tables are restored from the record,
//! and the reservation table restores itself through its journal (the
//! targeted releases of [`crate::Mrt::release_fu`] /
//! [`crate::Mrt::release_bus`] roll back like any reservation).

use distvliw_ir::NodeId;

use crate::schedule::CopyOp;

/// Everything a rejected ejection chain must restore, besides the
/// reservation table (which restores itself via the journal).
#[derive(Debug, Default)]
pub(crate) struct EvictionRecord {
    /// Evicted placements: `(node, cluster, start)`.
    pub nodes: Vec<(NodeId, usize, u32)>,
    /// Copy operations removed with them.
    pub copies: Vec<CopyOp>,
    /// Colocation-group bindings cleared because their last placed
    /// member was evicted: `(group, cluster)`.
    pub groups: Vec<(u32, usize)>,
    /// Journal of live-range cells the evictions overwrote (flat
    /// `(index, previous range)` pairs, undone in reverse), keeping the
    /// incremental register-pressure accounting rollback-exact.
    pub ranges: Vec<(usize, (i64, i64))>,
}

impl EvictionRecord {
    /// The evicted nodes, in eviction order (for re-enqueueing at lower
    /// priority).
    pub fn evicted(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.nodes.iter().map(|&(n, _, _)| n)
    }

    /// Empties the record, keeping its buffers for the next chain.
    pub fn clear(&mut self) {
        self.nodes.clear();
        self.copies.clear();
        self.groups.clear();
        self.ranges.clear();
    }
}

/// Total ejections allowed at one II before the search bumps to the
/// next. Rau's iterative modulo scheduling uses a small multiple of the
/// operation count; the constant offset keeps tiny kernels from giving
/// up after a couple of evictions. The multiple also caps what a
/// *hopeless* II may cost — an ejecting pass that fails burns the whole
/// budget, and phase 1 runs one per II.
#[must_use]
pub(crate) fn eject_budget(n_nodes: usize) -> u64 {
    n_nodes as u64 * 3 + 16
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn budget_scales_with_graph_size() {
        assert_eq!(eject_budget(0), 16);
        assert_eq!(eject_budget(10), 46);
        assert!(eject_budget(100) > eject_budget(10));
    }

    #[test]
    fn record_lists_evicted_nodes_in_order() {
        let rec = EvictionRecord {
            nodes: vec![(NodeId(3), 0, 5), (NodeId(1), 2, 0)],
            ..EvictionRecord::default()
        };
        let order: Vec<NodeId> = rec.evicted().collect();
        assert_eq!(order, vec![NodeId(3), NodeId(1)]);
    }
}
