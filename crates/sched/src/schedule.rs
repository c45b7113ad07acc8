//! Schedule output types.

use std::collections::BTreeMap;
use std::fmt;

use distvliw_arch::LatencyClass;
use distvliw_ir::NodeId;

/// Where and when one operation was placed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ScheduledOp {
    /// The DDG node.
    pub node: NodeId,
    /// The physical cluster executing the operation.
    pub cluster: usize,
    /// Absolute start cycle within the flat schedule (iteration 0 frame).
    pub start: u32,
    /// For loads: the latency class the scheduler assumed (paper
    /// Section 2.2: "the largest possible latency that does not have an
    /// impact on compute time").
    pub assumed_class: Option<LatencyClass>,
}

/// An inter-cluster register copy materialized by the scheduler for a
/// register-flow edge crossing clusters. Copies occupy a
/// register-to-register bus for the bus latency.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CopyOp {
    /// The producer whose value is transferred.
    pub producer: NodeId,
    /// Source cluster.
    pub from_cluster: usize,
    /// Destination cluster.
    pub to_cluster: usize,
    /// Absolute start cycle of the bus transfer (same-iteration frame as
    /// the producer).
    pub start: u32,
}

/// A complete modulo schedule for one loop.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Schedule {
    /// The initiation interval: a new iteration starts every `ii` cycles.
    pub ii: u32,
    /// Placement of every DDG node.
    pub ops: BTreeMap<NodeId, ScheduledOp>,
    /// Inter-cluster copies (the paper's "communication operations").
    pub copies: Vec<CopyOp>,
    /// Flat schedule length: `max(start) + 1` over all ops and copies.
    pub span: u32,
    /// Number of clusters the schedule targets.
    pub n_clusters: usize,
}

impl Schedule {
    /// Number of software-pipeline stages (`ceil(span / ii)`).
    #[must_use]
    pub fn stage_count(&self) -> u32 {
        self.span.div_ceil(self.ii.max(1)).max(1)
    }

    /// The placement of `node`.
    ///
    /// # Panics
    ///
    /// Panics if `node` was not scheduled.
    #[must_use]
    pub fn op(&self, node: NodeId) -> ScheduledOp {
        self.ops[&node]
    }

    /// Number of communication operations executed per iteration.
    #[must_use]
    pub fn comm_ops(&self) -> usize {
        self.copies.len()
    }

    /// The copy that moves `producer`'s value into `cluster`, if one was
    /// materialized. The scheduler plans at most one copy per
    /// `(producer, destination cluster)` pair — every consumer in that
    /// cluster reads the same transfer — so the first match is the only
    /// one. A read accessor for external verifiers; the scheduler itself
    /// resolves copies through its `CopyTable`.
    #[must_use]
    pub fn copy_to(&self, producer: NodeId, cluster: usize) -> Option<&CopyOp> {
        self.copies
            .iter()
            .find(|cp| cp.producer == producer && cp.to_cluster == cluster)
    }

    /// Steady-state compute cycles for `iterations` iterations of the
    /// loop: the pipeline fills for `span` cycles and then completes one
    /// iteration every `ii` cycles.
    #[must_use]
    pub fn compute_cycles(&self, iterations: u64) -> u64 {
        if iterations == 0 {
            return 0;
        }
        u64::from(self.span) + (iterations - 1) * u64::from(self.ii)
    }

    /// Applies a cluster permutation (the MinComs post-pass): operation
    /// and copy clusters are relabeled through `perm` (`perm[v]` is the
    /// physical cluster for virtual cluster `v`).
    ///
    /// # Panics
    ///
    /// Panics if `perm` is not a permutation of `0..n_clusters`.
    pub fn permute_clusters(&mut self, perm: &[usize]) {
        assert_eq!(perm.len(), self.n_clusters, "permutation size mismatch");
        let mut seen = vec![false; perm.len()];
        for &p in perm {
            assert!(p < perm.len() && !seen[p], "not a permutation");
            seen[p] = true;
        }
        for op in self.ops.values_mut() {
            op.cluster = perm[op.cluster];
        }
        for c in &mut self.copies {
            c.from_cluster = perm[c.from_cluster];
            c.to_cluster = perm[c.to_cluster];
        }
    }
}

impl fmt::Display for Schedule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "schedule: II={} span={} stages={} copies={}",
            self.ii,
            self.span,
            self.stage_count(),
            self.copies.len()
        )?;
        for (n, op) in &self.ops {
            writeln!(
                f,
                "  {n}: cluster {} cycle {}{}",
                op.cluster,
                op.start,
                op.assumed_class
                    .map(|c| format!(" ({c})"))
                    .unwrap_or_default()
            )?;
        }
        Ok(())
    }
}

/// Search telemetry of one `schedule_with_stats` call: how hard the II
/// search had to work, and what the ejection scheduler did. The pipeline
/// aggregates these per (suite, solution, heuristic) cell and feeds the
/// achieved II back as the next search's seed.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SchedStats {
    /// The achieved initiation interval.
    pub ii: u32,
    /// The lower bound the search opened at (max of ResMII, RecMII, the
    /// constraint-aware per-cluster bound and any mandated minimum).
    pub mii: u32,
    /// Initiation intervals attempted (including the successful one).
    pub iis_tried: u32,
    /// Placement attempts: every candidate `(cluster, cycle)` commit
    /// trial across the whole search, both phases.
    pub placement_attempts: u64,
    /// Operations evicted by the ejection scheduler across the search.
    pub ejections: u64,
    /// The II the search was seeded at, when a profile seed applied
    /// (strictly above the computed MII).
    pub seeded_at: Option<u32>,
    /// Peak stage-aware register pressure any accepted placement put on
    /// a single cluster.
    pub max_reg_pressure: u32,
}

/// Errors from the scheduler.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ScheduleError {
    /// No feasible schedule was found up to the II search limit.
    NoFeasibleIi {
        /// Lower bound that was computed.
        mii: u32,
        /// Highest II tried.
        max_tried: u32,
        /// Total placement attempts spent before giving up.
        attempts: u64,
        /// The first node that could not be placed at the last II tried
        /// — the place to start debugging, without a rerun.
        first_blocked: Option<distvliw_ir::NodeId>,
    },
    /// The graph has a zero-distance cycle (invalid input).
    InvalidGraph,
}

impl fmt::Display for ScheduleError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ScheduleError::NoFeasibleIi {
                mii,
                max_tried,
                attempts,
                first_blocked,
            } => {
                write!(
                    f,
                    "no feasible II in [{mii}, {max_tried}] ({attempts} placement attempts"
                )?;
                match first_blocked {
                    Some(n) => write!(f, ", first blocked on {n})"),
                    None => write!(f, ")"),
                }
            }
            ScheduleError::InvalidGraph => write!(f, "input graph has a zero-distance cycle"),
        }
    }
}

impl std::error::Error for ScheduleError {}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Schedule {
        let mut ops = BTreeMap::new();
        ops.insert(
            NodeId(0),
            ScheduledOp {
                node: NodeId(0),
                cluster: 0,
                start: 0,
                assumed_class: None,
            },
        );
        ops.insert(
            NodeId(1),
            ScheduledOp {
                node: NodeId(1),
                cluster: 2,
                start: 5,
                assumed_class: Some(LatencyClass::LocalHit),
            },
        );
        Schedule {
            ii: 2,
            ops,
            copies: vec![CopyOp {
                producer: NodeId(0),
                from_cluster: 0,
                to_cluster: 2,
                start: 1,
            }],
            span: 6,
            n_clusters: 4,
        }
    }

    #[test]
    fn stage_count_rounds_up() {
        let s = sample();
        assert_eq!(s.stage_count(), 3);
    }

    #[test]
    fn compute_cycles_formula() {
        let s = sample();
        assert_eq!(s.compute_cycles(0), 0);
        assert_eq!(s.compute_cycles(1), 6);
        assert_eq!(s.compute_cycles(10), 6 + 9 * 2);
    }

    #[test]
    fn permutation_relabels() {
        let mut s = sample();
        s.permute_clusters(&[3, 2, 1, 0]);
        assert_eq!(s.op(NodeId(0)).cluster, 3);
        assert_eq!(s.op(NodeId(1)).cluster, 1);
        assert_eq!(s.copies[0].from_cluster, 3);
        assert_eq!(s.copies[0].to_cluster, 1);
    }

    #[test]
    #[should_panic(expected = "not a permutation")]
    fn permutation_validation() {
        let mut s = sample();
        s.permute_clusters(&[0, 0, 1, 2]);
    }

    #[test]
    fn no_feasible_ii_error_is_diagnosable() {
        let e = ScheduleError::NoFeasibleIi {
            mii: 3,
            max_tried: 40,
            attempts: 1234,
            first_blocked: Some(NodeId(7)),
        };
        let text = e.to_string();
        assert!(text.contains("[3, 40]"), "{text}");
        assert!(text.contains("1234 placement attempts"), "{text}");
        assert!(text.contains("n7"), "{text}");
    }

    #[test]
    fn display_contains_ii() {
        let s = sample();
        let text = s.to_string();
        assert!(text.contains("II=2"));
        assert!(text.contains("n1"));
    }
}
