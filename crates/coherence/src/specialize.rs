//! Code specialization (paper Section 6).
//!
//! The compiler stays conservative: whenever it cannot prove two memory
//! instructions independent it adds a may-alias dependence. Code
//! specialization provides two versions of a loop — a *restrictive* one
//! honoring all dependences and an *aggressive* one ignoring the
//! unresolved ones — plus an entry check that picks the valid version at
//! run time. When the ambiguous accesses never actually overlap, the
//! aggressive version runs, and the chains the MDC solution must colocate
//! shrink dramatically (paper Table 5).
//!
//! Our ground truth for "actually aliases" is the kernel's *execution*
//! address streams: a dependence edge is removable exactly when no two
//! iterations of the whole trip have its endpoints touch a common byte,
//! as decided exactly (never by sampling) by
//! [`distvliw_ir::alias::overlap_any`].

use distvliw_ir::alias::{self, Access};
use distvliw_ir::LoopKernel;

/// Outcome of [`specialize_kernel`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SpecializationReport {
    /// Memory dependence edges examined.
    pub checked: usize,
    /// Edges removed because their endpoints never alias at run time
    /// (the aggressive loop version is selected).
    pub removed: usize,
}

impl SpecializationReport {
    /// Whether specialization changed the kernel at all.
    #[must_use]
    pub fn changed(&self) -> bool {
        self.removed > 0
    }
}

/// Applies code specialization to `kernel`: removes every memory
/// dependence edge whose two access sites touch disjoint byte ranges under
/// the execution input. Returns the specialized kernel (the aggressive
/// loop version) and a report.
///
/// Must run **before** the MDC/DDGT passes (it panics on graphs with
/// replicated instances, which no longer correspond to single dependence
/// sites).
///
/// # Panics
///
/// Panics if the kernel contains replicated store instances.
#[must_use]
pub fn specialize_kernel(kernel: &LoopKernel) -> (LoopKernel, SpecializationReport) {
    assert!(
        kernel
            .ddg
            .node_ids()
            .all(|n| kernel.ddg.replica_of(n).is_none()),
        "specialization must run before store replication"
    );
    let mut out = kernel.clone();
    let mut report = SpecializationReport::default();

    let edges: Vec<(distvliw_ir::EdgeId, distvliw_ir::Dep)> = out.ddg.mem_dep_edges().collect();
    for (e, d) in edges {
        report.checked += 1;
        let src_ref = out
            .ddg
            .node(d.src)
            .mem
            .expect("memory edge endpoints access memory");
        let dst_ref = out
            .ddg
            .node(d.dst)
            .mem
            .expect("memory edge endpoints access memory");
        let (Some(src_stream), Some(dst_stream)) =
            (out.exec.get(src_ref.mem), out.exec.get(dst_ref.mem))
        else {
            continue; // unbound streams stay conservative
        };
        let src = Access::new(src_stream, src_ref.width);
        let dst = Access::new(dst_stream, dst_ref.width);
        if !alias::overlap_any(&src, &dst, kernel.trip_count) {
            out.ddg.remove_dep(e);
            report.removed += 1;
        }
    }
    if report.changed() {
        out.name = format!("{}#spec", kernel.name);
    }
    (out, report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mdc::find_chains;
    use distvliw_ir::{AddressStream, DdgBuilder, DepKind, MemImage, Width};

    fn kernel_with_regions(src_base: u64, dst_base: u64) -> LoopKernel {
        let mut b = DdgBuilder::new();
        let l = b.load(Width::W4);
        let s = b.store(Width::W4, &[l]);
        b.dep(l, s, DepKind::MemAnti, 0);
        let g = b.finish();
        let (ml, ms) = (g.node(l).mem_id().unwrap(), g.node(s).mem_id().unwrap());
        let mut k = LoopKernel::new("spec", g, 64);
        for img in [&mut k.profile, &mut k.exec] {
            img.insert(
                ml,
                AddressStream::Affine {
                    base: src_base,
                    stride: 4,
                },
            );
            img.insert(
                ms,
                AddressStream::Affine {
                    base: dst_base,
                    stride: 4,
                },
            );
        }
        k
    }

    #[test]
    fn disjoint_regions_drop_the_edge() {
        let k = kernel_with_regions(0, 1 << 20);
        let (out, report) = specialize_kernel(&k);
        assert_eq!(report.checked, 1);
        assert_eq!(report.removed, 1);
        assert!(report.changed());
        assert_eq!(out.ddg.mem_dep_edges().count(), 0);
        assert!(out.name.ends_with("#spec"));
        // The chain disappears.
        assert_eq!(find_chains(&out.ddg).biggest_len(), 0);
    }

    #[test]
    fn overlapping_regions_keep_the_edge() {
        let k = kernel_with_regions(0, 128); // both walk overlapping ranges
        let (out, report) = specialize_kernel(&k);
        assert_eq!(report.checked, 1);
        assert_eq!(report.removed, 0);
        assert!(!report.changed());
        assert_eq!(out.ddg.mem_dep_edges().count(), 1);
        assert_eq!(out.name, k.name);
    }

    #[test]
    fn partial_word_overlap_counts_as_alias() {
        // Store writes 4-byte words at 2-byte offsets from the loads.
        let mut b = DdgBuilder::new();
        let l = b.load(Width::W4);
        let s = b.store(Width::W4, &[l]);
        b.dep(l, s, DepKind::MemAnti, 0);
        let g = b.finish();
        let (ml, ms) = (g.node(l).mem_id().unwrap(), g.node(s).mem_id().unwrap());
        let mut k = LoopKernel::new("partial", g, 4);
        for img in [&mut k.profile, &mut k.exec] {
            img.insert(
                ml,
                AddressStream::Affine {
                    base: 0,
                    stride: 16,
                },
            );
            img.insert(
                ms,
                AddressStream::Affine {
                    base: 2,
                    stride: 16,
                },
            );
        }
        let (_, report) = specialize_kernel(&k);
        assert_eq!(report.removed, 0);
    }

    #[test]
    fn unbound_streams_stay_conservative() {
        let mut k = kernel_with_regions(0, 1 << 20);
        k.exec = MemImage::new();
        let (out, report) = specialize_kernel(&k);
        assert_eq!(report.removed, 0);
        assert_eq!(out.ddg.mem_dep_edges().count(), 1);
    }

    #[test]
    fn an_alias_past_the_first_4096_iterations_keeps_its_edge() {
        // The load walks 8-byte steps from 0 and first reaches the store's
        // start, 40000, at iteration 5000 of 8192; within the first 4096
        // iterations the two touch disjoint ranges.
        let mut b = DdgBuilder::new();
        let l = b.load(Width::W4);
        let s = b.store(Width::W4, &[l]);
        b.dep(l, s, DepKind::MemAnti, 0);
        let g = b.finish();
        let (ml, ms) = (g.node(l).mem_id().unwrap(), g.node(s).mem_id().unwrap());
        let mut k = LoopKernel::new("late", g, 8192);
        for img in [&mut k.profile, &mut k.exec] {
            img.insert(ml, AddressStream::Affine { base: 0, stride: 8 });
            img.insert(
                ms,
                AddressStream::Affine {
                    base: 40_000,
                    stride: 4,
                },
            );
        }
        let (out, report) = specialize_kernel(&k);
        assert_eq!(report.removed, 0);
        assert_eq!(out.ddg.mem_dep_edges().count(), 1);
        // The same pair cut to 4096 iterations never aliases.
        k.trip_count = 4096;
        assert_eq!(specialize_kernel(&k).1.removed, 1);
    }
}
