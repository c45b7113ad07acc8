//! Stage-aware register pressure.
//!
//! A modulo schedule overlaps `span / ii` iterations, so a value whose
//! live range crosses stage boundaries is simultaneously live in several
//! in-flight iterations: a range spanning `s` cycles consumes `s / ii`
//! *extra* registers beyond the baseline one the cluster's bypass/port
//! structure covers. The placement loop charges every value against each
//! cluster that holds it — where it is produced, and every cluster it is
//! copied into — and rejects placements that would push a cluster's
//! stage-crossing demand past `MachineConfig::regs_per_cluster`. Without
//! this gate the overflow would surface only indirectly, as the bus-slot
//! failures of the copy storm a real register allocator would have
//! spilled into.
//!
//! The placer maintains the demand *incrementally* (`Placer::extend_range` /
//! `recompute_value_range` in `scheduler.rs`, journaled for rollback);
//! this module holds the model definition as a from-scratch recompute,
//! used by the placer's debug assertion and the unit tests.

use distvliw_ir::{Ddg, DepKind, NodeId, NodeMap};

use crate::dense::DenseDeps;

/// Read-only inputs of one pressure query.
pub(crate) struct PressureCtx<'a> {
    /// The graph being scheduled.
    pub ddg: &'a Ddg,
    /// Dense edge snapshot (register-flow edges drive live ranges).
    pub dense: &'a DenseDeps,
    /// Load latency assignment of the current trial.
    pub load_lat: &'a NodeMap<u32>,
    /// Register-bus transfer latency.
    pub bus_lat: u32,
    /// The initiation interval of the current trial.
    pub ii: u32,
    /// Number of clusters.
    pub n_clusters: usize,
}

impl PressureCtx<'_> {
    /// Cycles after issue at which `p`'s result register is written —
    /// the one result latency of the pressure model and the placer,
    /// which charges it on outgoing register flow.
    pub(crate) fn def_latency(&self, p: NodeId) -> i64 {
        let op = self.ddg.node(p);
        i64::from(if op.is_load() {
            self.load_lat.get(p).copied().unwrap_or(1)
        } else {
            op.kind.base_latency()
        })
    }
}

/// The stage-crossing register cost of one live range `[def, last]`:
/// `span / ii` registers, zero for a range contained in one stage.
pub(crate) fn range_cost(def: i64, last: i64, ii: u32) -> u64 {
    if last <= def {
        return 0; // empty or absent (sentinel) range
    }
    let span = last.saturating_sub(def) as u64;
    span / u64::from(ii.max(1))
}

/// The live range of `p`'s value in `cluster` under `placed`, or `None`
/// when the value never lives there.
///
/// In the producer's cluster the value is live from definition to its
/// last local read or outgoing copy launch; in a copied-to cluster from
/// copy arrival to the last read there. `copy_start` resolves the copy
/// table.
pub(crate) fn value_range(
    ctx: &PressureCtx<'_>,
    placed: &NodeMap<(usize, u32)>,
    copy_start: &dyn Fn(NodeId, usize) -> Option<u32>,
    p: NodeId,
    cluster: usize,
) -> Option<(i64, i64)> {
    let &(pc, ps) = placed.get(p)?;
    let out = ctx.dense.out_deps(p);
    if !out.iter().any(|d| d.kind == DepKind::RegFlow) {
        return None; // produces no register value (e.g. a store)
    }
    let ii = i64::from(ctx.ii.max(1));
    let def = if pc == cluster {
        i64::from(ps) + ctx.def_latency(p)
    } else {
        i64::from(copy_start(p, cluster)?) + i64::from(ctx.bus_lat)
    };
    let mut last = def;
    for d in out {
        if d.kind != DepKind::RegFlow {
            continue;
        }
        let Some(&(qc, qs)) = placed.get(d.dst) else {
            continue;
        };
        if qc == cluster {
            last = last.max(i64::from(qs) + ii * i64::from(d.distance));
        }
    }
    if pc == cluster {
        for k in 0..ctx.n_clusters {
            if k != cluster {
                if let Some(s) = copy_start(p, k) {
                    last = last.max(i64::from(s));
                }
            }
        }
    }
    Some((def, last))
}

/// Stage-crossing register demand of `cluster` under `placed`:
/// `Σ range_cost` over every value live in the cluster. The from-scratch
/// mirror of the placer's incremental accounting.
#[cfg_attr(not(debug_assertions), allow(dead_code))] // debug-assert + test mirror
pub(crate) fn cluster_pressure(
    ctx: &PressureCtx<'_>,
    placed: &NodeMap<(usize, u32)>,
    copy_start: &dyn Fn(NodeId, usize) -> Option<u32>,
    cluster: usize,
) -> u64 {
    let mut regs = 0u64;
    for (p, _) in placed.iter() {
        if let Some((def, last)) = value_range(ctx, placed, copy_start, p, cluster) {
            regs += range_cost(def, last, ctx.ii);
        }
    }
    regs
}

#[cfg(test)]
mod tests {
    use super::*;
    use distvliw_ir::{DdgBuilder, OpKind, Width};

    fn ctx<'a>(
        ddg: &'a Ddg,
        dense: &'a DenseDeps,
        lat: &'a NodeMap<u32>,
        ii: u32,
    ) -> PressureCtx<'a> {
        PressureCtx {
            ddg,
            dense,
            load_lat: lat,
            bus_lat: 2,
            ii,
            n_clusters: 4,
        }
    }

    #[test]
    fn same_stage_values_are_free() {
        let mut b = DdgBuilder::new();
        let p = b.op(OpKind::IntAlu, &[]);
        let q = b.op(OpKind::IntAlu, &[p]);
        let g = b.finish();
        let dense = DenseDeps::new(&g);
        let lat = NodeMap::new();
        let mut placed = NodeMap::new();
        placed.insert(p, (0usize, 0u32));
        placed.insert(q, (0usize, 1u32));
        let none = |_: NodeId, _: usize| None;
        let c = ctx(&g, &dense, &lat, 4);
        assert_eq!(cluster_pressure(&c, &placed, &none, 0), 0);
        assert_eq!(cluster_pressure(&c, &placed, &none, 1), 0);
    }

    #[test]
    fn stage_crossing_ranges_cost_span_over_ii() {
        // Producer defines at cycle 1 (1-cycle ALU), consumer reads at
        // cycle 9, II 4: the span of 8 cycles crosses two stage
        // boundaries → 2 registers.
        let mut b = DdgBuilder::new();
        let p = b.op(OpKind::IntAlu, &[]);
        let q = b.op(OpKind::IntAlu, &[p]);
        let g = b.finish();
        let dense = DenseDeps::new(&g);
        let lat = NodeMap::new();
        let mut placed = NodeMap::new();
        placed.insert(p, (0usize, 0u32));
        placed.insert(q, (0usize, 9u32));
        let none = |_: NodeId, _: usize| None;
        let c = ctx(&g, &dense, &lat, 4);
        assert_eq!(cluster_pressure(&c, &placed, &none, 0), 2);
    }

    #[test]
    fn copies_charge_the_destination_cluster() {
        // Producer in cluster 0, consumer in cluster 1 fed by a copy
        // launched at cycle 2 (arrives 4) and read at cycle 7, II 2:
        // home range [1, 2] is free, remote range [4, 7] crosses one
        // boundary.
        let mut b = DdgBuilder::new();
        let p = b.op(OpKind::IntAlu, &[]);
        let q = b.op(OpKind::IntAlu, &[p]);
        let g = b.finish();
        let dense = DenseDeps::new(&g);
        let lat = NodeMap::new();
        let mut placed = NodeMap::new();
        placed.insert(p, (0usize, 0u32));
        placed.insert(q, (1usize, 7u32));
        let copies = move |n: NodeId, c: usize| (n == p && c == 1).then_some(2u32);
        let c = ctx(&g, &dense, &lat, 2);
        assert_eq!(cluster_pressure(&c, &placed, &copies, 0), 0);
        assert_eq!(cluster_pressure(&c, &placed, &copies, 1), 1);
        assert_eq!(
            value_range(&c, &placed, &copies, p, 1),
            Some((4, 7)),
            "remote range runs from copy arrival to the read"
        );
    }

    #[test]
    fn loads_use_their_assigned_latency() {
        // A remote-miss load defines its value 15 cycles after issue; a
        // consumer at cycle 25 under II 5 leaves a 10-cycle span → 2.
        let mut b = DdgBuilder::new();
        let l = b.load(Width::W4);
        let q = b.op(OpKind::IntAlu, &[l]);
        let g = b.finish();
        let dense = DenseDeps::new(&g);
        let mut lat = NodeMap::new();
        lat.insert(l, 15);
        let mut placed = NodeMap::new();
        placed.insert(l, (2usize, 0u32));
        placed.insert(q, (2usize, 25u32));
        let none = |_: NodeId, _: usize| None;
        let c = ctx(&g, &dense, &lat, 5);
        assert_eq!(cluster_pressure(&c, &placed, &none, 2), 2);
    }

    #[test]
    fn self_recurrence_holds_a_register_across_the_stage() {
        // acc = acc + x at distance 1: the value written at cycle 2 is
        // read at cycle 0 of the next iteration (= cycle ii), so the
        // span is ii − 2... with II 1 the span crosses boundaries.
        let mut b = DdgBuilder::new();
        let acc = b.op(OpKind::IntAlu, &[]);
        b.recurrence(acc, acc, 3);
        let g = b.finish();
        let dense = DenseDeps::new(&g);
        let lat = NodeMap::new();
        let mut placed = NodeMap::new();
        placed.insert(acc, (0usize, 0u32));
        let none = |_: NodeId, _: usize| None;
        let c = ctx(&g, &dense, &lat, 2);
        // def 1, self use at 0 + 2×3 = 6 → span 5 → 2 registers.
        assert_eq!(cluster_pressure(&c, &placed, &none, 0), 2);
    }
}
