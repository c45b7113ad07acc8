//! The scheduler's priority order, with its topology built once per
//! search.
//!
//! Nodes are placed in a topological order over the zero-distance
//! dependence edges that puts the node with the longest latency path to
//! a sink first (critical path first), the lowest id on ties. The
//! latency-assignment trials of one search change only load latencies,
//! never the graph, so [`PriorityOrder`] extracts the zero-distance,
//! non-self edges once — forward as a CSR, backward grouped along a
//! fixed reverse-topological order — and keeps its height, in-degree
//! and heap buffers. The order for one latency assignment is then one
//! height sweep plus one heap walk, with no allocation.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use distvliw_ir::{Ddg, NodeId, NodeMap};

use crate::dense::{DenseDeps, DepRec};

/// Reusable priority-order engine for one graph without zero-distance
/// cycles.
#[derive(Debug, Clone)]
pub struct PriorityOrder {
    /// Nodes such that every zero-distance successor of a node comes
    /// before it (sinks first).
    reverse_topo: Vec<u32>,
    /// Zero-distance, non-self in-edges of `reverse_topo[k]` are
    /// `rev_edges[rev_start[k]..rev_start[k + 1]]`.
    rev_start: Vec<u32>,
    rev_edges: Vec<DepRec>,
    /// Zero-distance, non-self successors of node `i` are
    /// `fwd_dst[fwd_start[i]..fwd_start[i + 1]]`, in `Ddg` order.
    fwd_start: Vec<u32>,
    fwd_dst: Vec<u32>,
    /// Zero-distance, non-self in-degree of every node.
    indeg: Vec<u32>,
    /// Nodes with in-degree zero, ascending.
    sources: Vec<u32>,
    /// Scratch: longest latency path to a sink, remaining in-degrees,
    /// the ready heap and the output order.
    height: Vec<i64>,
    rem_in: Vec<u32>,
    ready: BinaryHeap<(i64, Reverse<u32>)>,
    order: Vec<NodeId>,
}

/// Whether `d` orders its endpoints within one iteration.
fn orders(d: &DepRec) -> bool {
    d.distance == 0 && d.src != d.dst
}

impl PriorityOrder {
    /// Extracts the zero-distance topology of `ddg`.
    ///
    /// # Panics
    ///
    /// In debug builds, panics if `ddg` has a zero-distance cycle (the
    /// scheduler rejects such graphs before it orders them).
    #[must_use]
    pub fn new(ddg: &Ddg) -> Self {
        Self::from_dense(&DenseDeps::new(ddg))
    }

    /// Builds the engine from an existing dense snapshot (the scheduler
    /// already has one).
    pub(crate) fn from_dense(dense: &DenseDeps) -> Self {
        let n = dense.node_count();
        let mut fwd_start = Vec::with_capacity(n + 1);
        let mut fwd_dst = Vec::new();
        let mut indeg = vec![0u32; n];
        let mut outdeg = vec![0u32; n];
        for (i, out) in outdeg.iter_mut().enumerate() {
            fwd_start.push(fwd_dst.len() as u32);
            for d in dense
                .out_deps(NodeId(i as u32))
                .iter()
                .filter(|d| orders(d))
            {
                fwd_dst.push(d.dst.0);
                indeg[d.dst.index()] += 1;
                *out += 1;
            }
        }
        fwd_start.push(fwd_dst.len() as u32);

        // One reverse-topological order (Kahn's algorithm from the
        // sinks); heights do not depend on which one.
        let mut reverse_topo = Vec::with_capacity(n);
        let mut rev_start = Vec::with_capacity(n + 1);
        let mut rev_edges = Vec::new();
        let mut stack: Vec<u32> = (0..n as u32).filter(|&i| outdeg[i as usize] == 0).collect();
        while let Some(i) = stack.pop() {
            reverse_topo.push(i);
            rev_start.push(rev_edges.len() as u32);
            for d in dense.in_deps(NodeId(i)).iter().filter(|d| orders(d)) {
                rev_edges.push(*d);
                let j = d.src.index();
                outdeg[j] -= 1;
                if outdeg[j] == 0 {
                    stack.push(j as u32);
                }
            }
        }
        rev_start.push(rev_edges.len() as u32);
        debug_assert_eq!(
            reverse_topo.len(),
            n,
            "graph must be acyclic over zero-distance edges"
        );

        let sources = (0..n as u32).filter(|&i| indeg[i as usize] == 0).collect();
        PriorityOrder {
            reverse_topo,
            rev_start,
            rev_edges,
            fwd_start,
            fwd_dst,
            indeg,
            sources,
            height: vec![0; n],
            rem_in: vec![0; n],
            ready: BinaryHeap::with_capacity(n),
            order: Vec::with_capacity(n),
        }
    }

    /// The priority order under the load latencies `load_lat`: a
    /// topological order over zero-distance edges whose ready set is a
    /// max-heap keyed by `(height, Reverse(node))` — the highest ready
    /// node first, the lowest id on ties.
    pub fn order(&mut self, load_lat: &NodeMap<u32>) -> &[NodeId] {
        // Heights: longest zero-distance latency path to a sink. Every
        // successor of a node precedes it in `reverse_topo`, so its
        // height is final when the node's in-edges are relaxed.
        self.height.fill(0);
        for (k, &i) in self.reverse_topo.iter().enumerate() {
            let h = self.height[i as usize];
            let edges = &self.rev_edges[self.rev_start[k] as usize..self.rev_start[k + 1] as usize];
            for d in edges {
                let j = d.src.index();
                self.height[j] = self.height[j].max(h + i64::from(d.latency(load_lat)));
            }
        }
        // Forward walk with max-height priority. The keys are unique, so
        // the order does not depend on how the heap was filled.
        self.rem_in.copy_from_slice(&self.indeg);
        self.order.clear();
        self.ready.clear();
        for &i in &self.sources {
            self.ready.push((self.height[i as usize], Reverse(i)));
        }
        while let Some((_, Reverse(i))) = self.ready.pop() {
            self.order.push(NodeId(i));
            let succ = &self.fwd_dst
                [self.fwd_start[i as usize] as usize..self.fwd_start[i as usize + 1] as usize];
            for &j in succ {
                self.rem_in[j as usize] -= 1;
                if self.rem_in[j as usize] == 0 {
                    self.ready.push((self.height[j as usize], Reverse(j)));
                }
            }
        }
        &self.order
    }
}
