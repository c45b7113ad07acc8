//! Generator combinators for synthetic loop kernels.
//!
//! Two loop shapes cover the Mediabench behaviours the paper's evaluation
//! depends on:
//!
//! * [`chain_loop`] — an in-place sliding-window update (pyramid filter,
//!   multiprecision arithmetic, filter bank): loads and wide stores with
//!   *overlapping* byte ranges on a shared array, producing genuine
//!   MF/MA/MO dependences through [`add_true_mem_deps`], an honest
//!   memory-disambiguation pass that decides overlap exactly over the
//!   kernel's whole trip with [`distvliw_ir::alias`] (never by
//!   sampling iterations), at distances up to [`MAX_DEP_DISTANCE`].
//!   Several *segments* on disjoint arrays can be linked by conservative
//!   (never-aliasing) edges — exactly the may-alias residue that the
//!   paper's code specialization removes.
//! * [`stream_loop`] — independent streaming accesses (no memory
//!   dependences) with a configurable locality profile.
//!
//! All address streams are wrap-around indexed tables, modelling blocked
//! media processing (a working window re-walked many times), and are
//! generated deterministically from per-benchmark seeds.

use std::sync::Arc;

use distvliw_ir::alias::{self, Access};
use distvliw_ir::{
    AddressStream, DdgBuilder, DepKind, LoopKernel, MemId, NodeId, OpKind, PrefInfo, PrefMap, Width,
};
use rand::{RngExt, SeedableRng};

use crate::alloc::AddressAllocator;

/// Iterations after which every address stream wraps (the working
/// window): 64 elements keeps per-op footprints at half a cache module.
pub const WRAP: u64 = 64;

/// Maximum loop-carried distance examined by the disambiguator; media
/// kernels carry their reuse within a couple of iterations. A pair that
/// aliases only at a larger distance gets no edge.
pub const MAX_DEP_DISTANCE: u32 = 2;

/// How the addresses of a streaming access spread over clusters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Locality {
    /// Stride `n_clusters × interleave`: the access touches one cluster
    /// for the whole loop (the shape loop unrolling produces, paper
    /// Section 2.2).
    Single,
    /// Element-stride walk: the access round-robins all clusters.
    Spread,
    /// Profiled-random: addresses drawn from a seeded RNG over a region
    /// (table lookups); the profile and execution inputs use different
    /// seeds.
    Random,
}

/// Builds the wrap-around stream `base + offset + stride·(i mod WRAP)`.
fn wrap_stream(base: u64, offset: u64, stride: u64) -> AddressStream {
    let table: Vec<u64> = (0..WRAP).map(|i| base + offset + stride * i).collect();
    AddressStream::Indexed(Arc::from(table))
}

/// Builds a seeded random stream over `slots` positions of `stride` bytes.
fn random_stream(base: u64, stride: u64, slots: u64, seed: u64) -> AddressStream {
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let table: Vec<u64> = (0..WRAP)
        .map(|_| base + stride * rng.random_range(0..slots))
        .collect();
    AddressStream::Indexed(Arc::from(table))
}

/// The honest memory-disambiguation pass: for every ordered pair of
/// memory operations and every distance up to [`MAX_DEP_DISTANCE`], adds
/// the appropriate dependence edge (MF store→load, MA load→store, MO
/// store→store) when their execution streams overlap at that distance on
/// some iteration of the kernel's trip, as decided exactly by
/// [`distvliw_ir::alias::overlap_at`]. Pairs are visited in program
/// order, then by distance, so edge ids follow that order. Returns the
/// number of edges added.
///
/// # Panics
///
/// Panics if a memory operation has no execution stream.
pub fn add_true_mem_deps(kernel: &mut LoopKernel) -> usize {
    let LoopKernel {
        ddg,
        exec,
        trip_count,
        ..
    } = kernel;
    // Each site's stream is resolved once, not once per pair.
    let sites: Vec<(NodeId, bool, Access<'_>)> = ddg
        .mem_nodes()
        .map(|n| {
            let op = ddg.node(n);
            let mem = op.mem.expect("memory op has a site");
            let stream = exec
                .get(mem.mem)
                .unwrap_or_else(|| panic!("no execution stream bound for {}", mem.mem));
            (n, op.is_store(), Access::new(stream, mem.width))
        })
        .collect();
    let mut added = 0;
    for (ai, (a, a_store, sa)) in sites.iter().enumerate() {
        for (bi, (b, b_store, sb)) in sites.iter().enumerate() {
            let kind = match (a_store, b_store) {
                _ if ai == bi => continue,
                (true, false) => DepKind::MemFlow,
                (false, true) => DepKind::MemAnti,
                (true, true) => DepKind::MemOut,
                (false, false) => continue,
            };
            for d in 0..=MAX_DEP_DISTANCE {
                if d == 0 && bi <= ai {
                    continue; // same-iteration edges follow program order
                }
                if alias::overlap_at(sa, sb, *trip_count, u64::from(d)) {
                    ddg.add_dep(*a, *b, kind, d);
                    added += 1;
                }
            }
        }
    }
    added
}

/// Specification of a chained (in-place) loop.
#[derive(Debug, Clone)]
pub struct ChainSpec {
    /// Loop name within the suite.
    pub name: &'static str,
    /// Memory operations per segment; segments sit on disjoint arrays and
    /// are linked by conservative may-alias edges. Sizes are rounded up
    /// to whole periods of the 6-op overlap pattern (4 loads, 2 stores).
    pub segments: Vec<usize>,
    /// Cache interleaving the pattern is built for (2 or 4 bytes).
    pub interleave: u64,
    /// Extra arithmetic operations (filter math). The first
    /// `recurrence_depth` of them form a serial loop-carried recurrence
    /// (the filter accumulator), which bounds the achievable II for
    /// *every* solution and keeps the MDC serialization penalty in the
    /// moderate range the paper reports (Table 4).
    pub arith_pad: usize,
    /// Length of the serial recurrence carved out of `arith_pad`.
    pub recurrence_depth: usize,
    /// Byte-granular pattern (jpegdec): all accesses of a segment fall in
    /// one interleave unit, so the whole chain prefers a single cluster.
    pub byte_pattern: bool,
    /// The two stores of a period share their value and address producers
    /// (epic's pyramid writes one computed value to two locations); this
    /// halves the operand broadcast DDGT must pay.
    pub shared_store_operands: bool,
    /// Whether the arithmetic is floating point.
    pub fp: bool,
    /// Iterations per invocation.
    pub trip: u64,
    /// Invocations (the loop's weight in the benchmark).
    pub invocations: u64,
}

/// One period of the overlap pattern: load offsets (in interleave units
/// 0..4) and store offsets chosen so that the stores' wide accesses
/// overlap every load and the last store reaches into the next iteration
/// — a connected web of MF/MA/MO dependences spanning all four clusters.
struct Pattern {
    load_offsets: [u64; 4],
    load_width: Width,
    store_offsets: [u64; 2],
    store_width: Width,
    stride: u64,
}

fn pattern(interleave: u64, byte_pattern: bool) -> Pattern {
    if byte_pattern {
        // Byte data under a wider interleave: the whole window sits in a
        // single interleave unit, so every access shares one home.
        return Pattern {
            load_offsets: [0, 1, 2, 3],
            load_width: Width::W1,
            store_offsets: [0, 2],
            store_width: Width::W4,
            stride: 4 * interleave,
        };
    }
    match interleave {
        2 => Pattern {
            // Stores at 2 and 5 overlap each other (MO), cover loads 2..6
            // (MA), and store 5 reaches load 0 of the next iteration (MF).
            load_offsets: [0, 2, 4, 6],
            load_width: Width::W2,
            store_offsets: [2, 5],
            store_width: Width::W4,
            stride: 8,
        },
        _ => Pattern {
            // Same shape scaled ×2: stores at 2 and 9 (8-byte) overlap,
            // cover every load, and reach into the next iteration.
            load_offsets: [0, 4, 8, 12],
            load_width: Width::W4,
            store_offsets: [2, 9],
            store_width: Width::W8,
            stride: 16,
        },
    }
}

/// Builds a chained loop per `spec`.
///
/// # Panics
///
/// Panics if the spec has no segments or zero-sized segments.
#[must_use]
pub fn chain_loop(spec: &ChainSpec, alloc: &mut AddressAllocator) -> LoopKernel {
    assert!(
        !spec.segments.is_empty(),
        "chain loop needs at least one segment"
    );
    let pat = pattern(spec.interleave, spec.byte_pattern);
    let mut b = DdgBuilder::new();
    let mut profile_streams: Vec<(MemId, AddressStream)> = Vec::new();
    let mut exec_streams: Vec<(MemId, AddressStream)> = Vec::new();
    let mut segment_stores: Vec<Vec<NodeId>> = Vec::new();
    let mut segment_first_load: Vec<NodeId> = Vec::new();

    for &seg_size in &spec.segments {
        assert!(seg_size > 0, "segments must be nonempty");
        let periods = seg_size.div_ceil(6);
        let (pbase, ebase) = alloc.array(pat.stride * WRAP + 64);
        let mut stores = Vec::new();
        let mut first_load = None;
        for _ in 0..periods {
            // Loads first (program order), then the stores that overlap
            // them — an in-place window update.
            let mut loads = Vec::new();
            for &off in &pat.load_offsets {
                let ld = b.load(pat.load_width);
                let mem = b.graph().node(ld).mem_id().expect("load site");
                profile_streams.push((mem, wrap_stream(pbase, off, pat.stride)));
                exec_streams.push((mem, wrap_stream(ebase, off, pat.stride)));
                loads.push(ld);
                first_load.get_or_insert(ld);
            }
            // A small reduction over the window feeds each store. Every
            // store gets its own value producer and its own address
            // computation: under DDGT both operands must be broadcast to
            // all replica instances, which is exactly the paper's
            // register-bus pressure ("each instance of a given store
            // receives all its source operands by register-to-register
            // communication operations", Section 5.3).
            let kind = if spec.fp {
                OpKind::FpAlu
            } else {
                OpKind::IntAlu
            };
            let t0 = b.op(kind, &[loads[0], loads[1]]);
            let t1 = b.op(kind, &[loads[2], loads[3]]);
            let shared = spec
                .shared_store_operands
                .then(|| (b.op(kind, &[t0, t1]), b.op(OpKind::IntAlu, &[])));
            for (si, &off) in pat.store_offsets.iter().enumerate() {
                let (value, addr) = match shared {
                    Some(pair) => pair,
                    None => {
                        let value = if si % 2 == 0 {
                            b.op(kind, &[t0, t1])
                        } else {
                            b.op(kind, &[t1, t0])
                        };
                        (value, b.op(OpKind::IntAlu, &[]))
                    }
                };
                let st = b.store(pat.store_width, &[value, addr]);
                let mem = b.graph().node(st).mem_id().expect("store site");
                profile_streams.push((mem, wrap_stream(pbase, off, pat.stride)));
                exec_streams.push((mem, wrap_stream(ebase, off, pat.stride)));
                stores.push(st);
            }
        }
        segment_stores.push(stores);
        segment_first_load.push(first_load.expect("segment has loads"));
    }

    // The filter accumulator: a serial loop-carried recurrence that
    // bounds the II of every solution alike.
    let rec_kind = if spec.fp {
        OpKind::FpAlu
    } else {
        OpKind::IntAlu
    };
    let depth = spec.recurrence_depth.min(spec.arith_pad);
    if depth > 0 {
        let first = b.op(rec_kind, &[]);
        let mut cur = first;
        for _ in 1..depth {
            cur = b.op(rec_kind, &[cur]);
        }
        b.recurrence(cur, first, 1);
    }

    // Independent arithmetic padding (the surrounding filter math).
    let mut prev: Option<NodeId> = None;
    for i in depth..spec.arith_pad {
        let kind = match (spec.fp, i % 3) {
            (true, 0) => OpKind::FpMul,
            (true, _) => OpKind::FpAlu,
            (false, 0) => OpKind::IntMul,
            (false, _) => OpKind::IntAlu,
        };
        let srcs: Vec<NodeId> = prev.into_iter().collect();
        let n = b.op(kind, &srcs);
        prev = if i % 4 == 3 { None } else { Some(n) };
    }

    let mut kernel = LoopKernel::new(spec.name, b.finish(), spec.trip);
    kernel.invocations = spec.invocations;
    kernel.profile.extend(profile_streams);
    kernel.exec.extend(exec_streams);

    // True dependences from actual overlap.
    add_true_mem_deps(&mut kernel);

    // Conservative links between consecutive segments: the compiler could
    // not disambiguate the segment arrays, so it added a may-alias edge
    // from each segment's last store to the next segment's first load.
    // These never alias at run time — code specialization removes them.
    for s in 0..spec.segments.len().saturating_sub(1) {
        let from = *segment_stores[s].last().expect("segment has stores");
        let to = segment_first_load[s + 1];
        kernel.ddg.add_dep(from, to, DepKind::MemFlow, 0);
    }
    kernel
}

/// Specification of a streaming (dependence-free) loop.
#[derive(Debug, Clone)]
pub struct StreamSpec {
    /// Loop name within the suite.
    pub name: &'static str,
    /// Number of memory operations.
    pub mem_ops: usize,
    /// Every `store_every`-th memory op is a store (0 = loads only).
    pub store_every: usize,
    /// Access width.
    pub width: Width,
    /// Cache interleaving (2 or 4 bytes).
    pub interleave: u64,
    /// Locality profile per op (cycled).
    pub locality: Vec<Locality>,
    /// Arithmetic operations per memory op.
    pub arith_per_mem: usize,
    /// Whether the arithmetic is floating point.
    pub fp: bool,
    /// Iterations per invocation.
    pub trip: u64,
    /// Invocations.
    pub invocations: u64,
    /// Seed for the random locality streams.
    pub seed: u64,
}

/// Builds a streaming loop per `spec`.
///
/// # Panics
///
/// Panics if `mem_ops` or `locality` is empty.
#[must_use]
pub fn stream_loop(spec: &StreamSpec, alloc: &mut AddressAllocator, n_clusters: u64) -> LoopKernel {
    assert!(spec.mem_ops > 0, "stream loop needs memory operations");
    assert!(
        !spec.locality.is_empty(),
        "locality pattern must be nonempty"
    );
    let mut b = DdgBuilder::new();
    let mut profile_streams: Vec<(MemId, AddressStream)> = Vec::new();
    let mut exec_streams: Vec<(MemId, AddressStream)> = Vec::new();
    let width = spec.width.bytes();
    let period = n_clusters * spec.interleave;

    let mut loaded: Vec<NodeId> = Vec::new();
    for i in 0..spec.mem_ops {
        let locality = spec.locality[i % spec.locality.len()];
        let footprint = match locality {
            Locality::Single => period * WRAP + 64,
            Locality::Spread => width * WRAP + 64,
            Locality::Random => period * WRAP * 4 + 64,
        };
        // Every fourth array cannot be padded: its execution-input home
        // clusters are rotated by one relative to the profile.
        let skew = if i % 4 == 1 { spec.interleave } else { 0 };
        let (pbase, ebase) = alloc.array_skewed(footprint, skew);
        // Rotate single-cluster ops across clusters for balance.
        let unit_offset = (i as u64 % n_clusters) * spec.interleave;
        let (pstream, estream) = match locality {
            Locality::Single => (
                wrap_stream(pbase, unit_offset, period),
                wrap_stream(ebase, unit_offset, period),
            ),
            Locality::Spread => (wrap_stream(pbase, 0, width), wrap_stream(ebase, 0, width)),
            Locality::Random => (
                random_stream(pbase, width, WRAP * 4, spec.seed ^ (i as u64) << 1),
                random_stream(ebase, width, WRAP * 4, spec.seed ^ (i as u64) << 1 ^ 0xABCD),
            ),
        };
        let is_store = spec.store_every > 0 && i % spec.store_every == spec.store_every - 1;
        let node = if is_store {
            let srcs: Vec<NodeId> = loaded.last().copied().into_iter().collect();
            b.store(spec.width, &srcs)
        } else {
            let ld = b.load(spec.width);
            loaded.push(ld);
            ld
        };
        let mem = b.graph().node(node).mem_id().expect("mem op");
        profile_streams.push((mem, pstream));
        exec_streams.push((mem, estream));
    }

    // Arithmetic consuming the loads (stall-on-use consumers).
    let kind = if spec.fp {
        OpKind::FpAlu
    } else {
        OpKind::IntAlu
    };
    let mul = if spec.fp {
        OpKind::FpMul
    } else {
        OpKind::IntMul
    };
    let total_arith = spec.mem_ops * spec.arith_per_mem;
    let mut prev: Option<NodeId> = None;
    for i in 0..total_arith {
        let mut srcs: Vec<NodeId> = Vec::new();
        if let Some(p) = prev {
            srcs.push(p);
        }
        if !loaded.is_empty() && i < loaded.len() {
            srcs.push(loaded[i]);
        }
        let n = b.op(if i % 5 == 4 { mul } else { kind }, &srcs);
        prev = if i % 3 == 2 { None } else { Some(n) };
    }

    let mut kernel = LoopKernel::new(spec.name, b.finish(), spec.trip);
    kernel.invocations = spec.invocations;
    kernel.profile.extend(profile_streams);
    kernel.exec.extend(exec_streams);
    kernel
}

/// An adversarial kernel for the ejection scheduler, plus the profile
/// that arms it: a `chain_len`-op memory-dependent chain whose profile
/// pins it (under MDC + PrefClus) to cluster 0, and one *higher
/// priority* load preferring the same cluster, trailed by a dependent
/// ALU tail that hoists it to the top of the priority order.
///
/// At the chain's constrained MII the early load occupies the one
/// memory-unit slot the chain is short of, so the restart-only search
/// must give the whole II away; the ejection scheduler instead cascades
/// the chain down one slot, evicts the intruder to another cluster and
/// keeps the II. Used by the ejection regression tests.
#[must_use]
pub fn eject_stress_kernel(n_clusters: usize, chain_len: usize) -> (LoopKernel, PrefMap) {
    let mut b = DdgBuilder::new();
    let chain: Vec<NodeId> = (0..chain_len).map(|_| b.load(Width::W4)).collect();
    for w in chain.windows(2) {
        b.dep(w[0], w[1], DepKind::MemAnti, 0);
    }
    let intruder = b.load(Width::W4);
    let mut prev = intruder;
    for _ in 0..4 {
        prev = b.op(OpKind::IntAlu, &[prev]);
    }
    let ddg = b.finish();

    let mut prefs = PrefMap::new();
    let cluster0 = || {
        let mut counts = vec![0u64; n_clusters];
        counts[0] = 100;
        PrefInfo::from_counts(counts)
    };
    for &l in chain.iter().chain(std::iter::once(&intruder)) {
        prefs.insert(ddg.node(l).mem_id().expect("loads have sites"), cluster0());
    }

    let mut kernel = LoopKernel::new("eject_stress", ddg, 16);
    let sites: Vec<_> = kernel
        .ddg
        .mem_nodes()
        .map(|n| kernel.ddg.node(n).mem_id().expect("memory op"))
        .collect();
    for (i, mem) in sites.into_iter().enumerate() {
        let stream = AddressStream::Affine {
            base: 4096 + i as u64 * 0x100,
            stride: 4,
        };
        kernel.profile.insert(mem, stream.clone());
        kernel.exec.insert(mem, stream);
    }
    (kernel, prefs)
}

#[cfg(test)]
mod tests {
    use super::*;
    use distvliw_coherence::find_chains;

    fn chain_spec() -> ChainSpec {
        ChainSpec {
            name: "test.chain",
            segments: vec![6, 6],
            interleave: 4,
            arith_pad: 8,
            recurrence_depth: 4,
            byte_pattern: false,
            shared_store_operands: false,
            fp: false,
            trip: 128,
            invocations: 1,
        }
    }

    #[test]
    fn chain_loop_is_valid_and_connected() {
        let mut alloc = AddressAllocator::new();
        let k = chain_loop(&chain_spec(), &mut alloc);
        assert!(k.validate().is_ok(), "{:?}", k.validate());
        let chains = find_chains(&k.ddg);
        // Both segments are linked by the conservative edge: one chain of
        // 12 memory ops.
        assert_eq!(chains.biggest_len(), 12);
    }

    #[test]
    fn chain_loop_has_all_three_dep_kinds() {
        let mut alloc = AddressAllocator::new();
        let k = chain_loop(&chain_spec(), &mut alloc);
        let kinds: std::collections::BTreeSet<String> = k
            .ddg
            .mem_dep_edges()
            .map(|(_, d)| d.kind.to_string())
            .collect();
        assert!(kinds.contains("MF"), "{kinds:?}");
        assert!(kinds.contains("MA"), "{kinds:?}");
        assert!(kinds.contains("MO"), "{kinds:?}");
    }

    #[test]
    fn chain_loads_spread_over_clusters() {
        let mut alloc = AddressAllocator::new();
        let k = chain_loop(&chain_spec(), &mut alloc);
        // Loads at offsets 0,4,8,12 with stride 16 → homes 0..3.
        let homes: std::collections::BTreeSet<u64> = k
            .ddg
            .loads()
            .map(|l| {
                let mem = k.ddg.node(l).mem_id().unwrap();
                (k.exec.addr(mem, 0) / 4) % 4
            })
            .collect();
        assert_eq!(homes.len(), 4, "{homes:?}");
    }

    #[test]
    fn interleave2_pattern_uses_short_accesses() {
        let mut alloc = AddressAllocator::new();
        let spec = ChainSpec {
            interleave: 2,
            ..chain_spec()
        };
        let k = chain_loop(&spec, &mut alloc);
        let widths: std::collections::BTreeSet<u64> = k
            .ddg
            .mem_nodes()
            .map(|n| k.ddg.node(n).mem.unwrap().width.bytes())
            .collect();
        assert!(widths.contains(&2));
        assert!(widths.contains(&4));
    }

    #[test]
    fn overlap_detection_is_symmetric_enough() {
        let (a, b, c) = (
            wrap_stream(0, 0, 16),
            wrap_stream(0, 2, 16),
            wrap_stream(1 << 20, 0, 16),
        );
        let (a, b, c) = (
            Access::new(&a, Width::W4),
            Access::new(&b, Width::W8),
            Access::new(&c, Width::W8),
        );
        // W4 at offset 0 overlaps W8 at offset 2 in the same iteration.
        assert!(alias::overlap_at(&a, &b, WRAP, 0));
        assert!(alias::overlap_at(&b, &a, WRAP, 0));
        // Disjoint arrays never overlap.
        assert!(!alias::overlap_at(&a, &c, WRAP, 0));
    }

    #[test]
    fn wrap_stream_wraps() {
        let s = wrap_stream(100, 4, 8);
        assert_eq!(s.addr_at(0), 104);
        assert_eq!(s.addr_at(WRAP), 104);
        assert_eq!(s.addr_at(1), 112);
    }

    #[test]
    fn random_streams_differ_between_inputs() {
        let p = random_stream(0, 4, 256, 1);
        let e = random_stream(0, 4, 256, 2);
        let same = (0..WRAP).all(|i| p.addr_at(i) == e.addr_at(i));
        assert!(!same);
    }
}
