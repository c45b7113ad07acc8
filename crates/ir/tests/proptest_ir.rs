//! Property tests for the IR crate: graph invariants under replication,
//! and address-stream algebra.

use std::sync::Arc;

use distvliw_ir::{AddressStream, DdgBuilder, DepKind, LoopKernel, NodeId, OpKind, Width};
use proptest::prelude::*;

fn arb_stream() -> impl Strategy<Value = AddressStream> {
    prop_oneof![
        (0u64..1 << 20, -64i64..64).prop_map(|(base, stride)| AddressStream::Affine {
            base: base + (1 << 20), // keep negative strides in range
            stride,
        }),
        proptest::collection::vec(0u64..1 << 20, 1..32)
            .prop_map(|v| AddressStream::Indexed(Arc::from(v))),
    ]
}

fn arb_kernel() -> impl Strategy<Value = LoopKernel> {
    (
        1usize..6,
        0usize..5,
        proptest::collection::vec(any::<u8>(), 8),
        1u64..5,
    )
        .prop_map(|(n_mem, n_arith, entropy, trip_scale)| {
            let mut b = DdgBuilder::new();
            let mut produced: Vec<NodeId> = Vec::new();
            for i in 0..n_mem {
                if entropy[i % entropy.len()] % 2 == 0 || produced.is_empty() {
                    produced.push(b.load(Width::W4));
                } else {
                    let src = produced[i % produced.len()];
                    b.store(Width::W4, &[src]);
                }
            }
            for i in 0..n_arith {
                let srcs: Vec<NodeId> = produced
                    .get(i % produced.len().max(1))
                    .copied()
                    .into_iter()
                    .collect();
                let n = b.op(OpKind::IntAlu, &srcs);
                produced.push(n);
            }
            // A loop-carried memory dependence when there are 2+ mem ops.
            let g = b.graph();
            let mem: Vec<NodeId> = g.mem_nodes().collect();
            if mem.len() >= 2 {
                b.dep(mem[0], mem[1], DepKind::MemAnti, 1);
            }
            let ddg = b.finish();
            let sites: Vec<_> = ddg
                .mem_nodes()
                .map(|n| ddg.node(n).mem_id().unwrap())
                .collect();
            let mut k = LoopKernel::new("prop-ir", ddg, 8 * trip_scale);
            for (i, &m) in sites.iter().enumerate() {
                for img in [&mut k.profile, &mut k.exec] {
                    img.insert(
                        m,
                        AddressStream::Affine {
                            base: 64 * i as u64,
                            stride: 4,
                        },
                    );
                }
            }
            k
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn streams_are_deterministic(stream in arb_stream(), iter in 0u64..10_000) {
        prop_assert_eq!(stream.addr_at(iter), stream.addr_at(iter));
    }

    #[test]
    fn indexed_streams_cycle(table in proptest::collection::vec(0u64..1 << 20, 1..32), i in 0u64..256) {
        let len = table.len() as u64;
        let s = AddressStream::Indexed(Arc::from(table));
        prop_assert_eq!(s.addr_at(i), s.addr_at(i + len));
    }

    #[test]
    fn replicate_preserves_edge_counts(kernel in arb_kernel()) {
        let mut g = kernel.ddg.clone();
        let Some(target) = g.stores().next() else { return Ok(()) };
        let in_deg = g.in_deps(target).count();
        let out_deg = g.out_deps(target).count();
        let total = g.edge_count();
        let clone = g.replicate(target);
        prop_assert_eq!(g.in_deps(clone).count(), in_deg);
        prop_assert_eq!(g.out_deps(clone).count(), out_deg);
        prop_assert_eq!(g.edge_count(), total + in_deg + out_deg);
        prop_assert_eq!(g.replica_of(clone), Some(target));
    }

    #[test]
    fn profile_counts_total_matches_iterations(kernel in arb_kernel()) {
        let n = kernel.ddg.mem_nodes().count() as u64;
        let map = distvliw_ir::profile::preferred_clusters(&kernel, 4, |a| ((a / 4) % 4) as usize);
        let total: u64 = map.values().map(|p| p.total()).sum();
        prop_assert_eq!(total, n * kernel.trip_count.min(distvliw_ir::profile::PROFILE_ITERATION_CAP));
    }
}
