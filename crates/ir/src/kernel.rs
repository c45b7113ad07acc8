//! Loop kernels, address streams and benchmark suites.

use std::collections::BTreeMap;
use std::fmt;
use std::sync::Arc;

use crate::ddg::Ddg;
use crate::op::MemId;

/// The sequence of addresses one memory operation touches across the
/// iterations of its loop.
///
/// Streams are the reproduction's stand-in for real program inputs: a
/// [`crate::LoopKernel`] carries one stream per memory site for the
/// *profile* input and one for the *execution* input, mirroring the paper's
/// Table 1 (different data sets for profiling and simulation).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AddressStream {
    /// `addr(i) = base + stride * i` (wrapping arithmetic on overflow).
    Affine {
        /// Address at iteration 0.
        base: u64,
        /// Per-iteration increment in bytes (may be negative or zero).
        stride: i64,
    },
    /// An explicit address per iteration; cycles if the loop runs longer
    /// than the table.
    Indexed(Arc<[u64]>),
}

impl AddressStream {
    /// The address accessed on iteration `iter`.
    ///
    /// # Panics
    ///
    /// Panics if an [`AddressStream::Indexed`] table is empty.
    // Suite generation calls this in the innermost loop of its
    // dependence analysis, across crates. Without the hint, whether
    // that call is inlined varies with how this crate happens to be
    // laid out, a ~20% swing in suite-build time.
    #[must_use]
    #[inline]
    pub fn addr_at(&self, iter: u64) -> u64 {
        match self {
            AddressStream::Affine { base, stride } => {
                base.wrapping_add_signed(stride.wrapping_mul(iter as i64))
            }
            AddressStream::Indexed(t) => {
                assert!(!t.is_empty(), "indexed address stream must not be empty");
                t[(iter % t.len() as u64) as usize]
            }
        }
    }

    /// The affine stride, if this is an affine stream.
    #[must_use]
    pub fn stride(&self) -> Option<i64> {
        match self {
            AddressStream::Affine { stride, .. } => Some(*stride),
            AddressStream::Indexed(_) => None,
        }
    }
}

/// Address streams for every memory site of a kernel, for one input set.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct MemImage {
    streams: BTreeMap<MemId, AddressStream>,
}

impl MemImage {
    /// Creates an empty image.
    #[must_use]
    pub fn new() -> Self {
        MemImage::default()
    }

    /// Binds the stream for a memory site, returning the previous binding.
    pub fn insert(&mut self, mem: MemId, stream: AddressStream) -> Option<AddressStream> {
        self.streams.insert(mem, stream)
    }

    /// The stream bound to `mem`.
    #[must_use]
    pub fn get(&self, mem: MemId) -> Option<&AddressStream> {
        self.streams.get(&mem)
    }

    /// The address `mem` accesses on iteration `iter`.
    ///
    /// # Panics
    ///
    /// Panics if `mem` has no bound stream.
    #[must_use]
    pub fn addr(&self, mem: MemId, iter: u64) -> u64 {
        self.streams
            .get(&mem)
            .unwrap_or_else(|| panic!("no address stream bound for {mem}"))
            .addr_at(iter)
    }

    /// Iterator over `(MemId, &AddressStream)` bindings.
    pub fn iter(&self) -> impl Iterator<Item = (MemId, &AddressStream)> + '_ {
        self.streams.iter().map(|(&m, s)| (m, s))
    }

    /// Number of bound sites.
    #[must_use]
    pub fn len(&self) -> usize {
        self.streams.len()
    }

    /// Whether no site is bound.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.streams.is_empty()
    }
}

impl FromIterator<(MemId, AddressStream)> for MemImage {
    fn from_iter<T: IntoIterator<Item = (MemId, AddressStream)>>(iter: T) -> Self {
        MemImage {
            streams: iter.into_iter().collect(),
        }
    }
}

impl Extend<(MemId, AddressStream)> for MemImage {
    fn extend<T: IntoIterator<Item = (MemId, AddressStream)>>(&mut self, iter: T) {
        self.streams.extend(iter);
    }
}

/// Largest trip count [`LoopKernel::validate`] accepts (every bundled
/// kernel runs at most 256 iterations).
///
/// The three kernel limits keep every simulation counter of an accepted
/// kernel below 2^63, so even compute + stall cycles fit a `u64`. The
/// simulator walks one invocation and multiplies by `invocations`. With
/// `C = distvliw_arch::MAX_CLUSTERS` (64) and `L =
/// distvliw_arch::MAX_LATENCY` (1024 cycles):
///
/// * One iteration issues fewer than `2 · ops · C` events: the DDGT pass
///   replicates each store once per cluster (at most `ops · C` nodes),
///   and a schedule copies each produced value at most once to each
///   other cluster (fewer than `ops · C` copies; stores produce none).
/// * Compute cycles are `(trip − 1) · II + span < trip · 2^32`, since a
///   schedule's II and span are `u32`.
/// * One event moves the latest busy or ready time of the machine by at
///   most `4 · L`: the longest chain, a remote load that misses at home,
///   takes a request bus, the home module, a next-level port and a
///   response bus. So stalls add at most `4 · L` per event, and one
///   invocation takes at most `trip · (2^32 + 8 · ops · C · L)` cycles.
///   Accesses, copies, violations (one per access at most), bus grants
///   (three per access at most) and bus-busy cycles stay below that.
///
/// At the limits, `2^16 · 2^14 · (2^32 + 8 · 2^12 · 2^6 · 2^10) < 2^63`.
/// The simulator asserts this at compile time.
pub const MAX_TRIP_COUNT: u64 = 1 << 16;
/// Largest invocation count [`LoopKernel::validate`] accepts (bundled
/// kernels run at most 53); see [`MAX_TRIP_COUNT`] for the arithmetic.
pub const MAX_INVOCATIONS: u64 = 1 << 14;
/// Largest graph, in operations, [`LoopKernel::validate`] accepts, before
/// any DDGT store replication; see [`MAX_TRIP_COUNT`] for the arithmetic.
pub const MAX_KERNEL_OPS: u64 = 1 << 12;

/// Errors reported by [`LoopKernel::validate`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum KernelError {
    /// A memory operation has no address stream in one of the images.
    MissingStream {
        /// The unbound memory site.
        mem: MemId,
        /// `"profile"` or `"exec"`.
        image: &'static str,
    },
    /// The kernel iterates zero times.
    ZeroTripCount,
    /// The trip count, the invocation count or the op count exceeds its
    /// limit ([`MAX_TRIP_COUNT`], [`MAX_INVOCATIONS`],
    /// [`MAX_KERNEL_OPS`]).
    TooLarge {
        /// `"trip count"`, `"invocations"` or `"ops"`.
        what: &'static str,
        /// The kernel's value.
        value: u64,
        /// The largest accepted value.
        max: u64,
    },
    /// The underlying graph is invalid.
    Graph(crate::ddg::DdgError),
}

impl fmt::Display for KernelError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            KernelError::MissingStream { mem, image } => {
                write!(f, "memory site {mem} has no {image} address stream")
            }
            KernelError::ZeroTripCount => write!(f, "kernel trip count is zero"),
            KernelError::TooLarge { what, value, max } => {
                write!(f, "kernel {what} {value} exceeds the limit {max}")
            }
            KernelError::Graph(e) => write!(f, "invalid graph: {e}"),
        }
    }
}

impl std::error::Error for KernelError {}

/// A modulo-schedulable loop: its DDG plus the dynamic metadata the
/// evaluation needs.
#[derive(Debug, Clone)]
pub struct LoopKernel {
    /// Human-readable loop name (unique within a suite).
    pub name: String,
    /// The loop body's data dependence graph.
    pub ddg: Ddg,
    /// Iterations per loop invocation.
    pub trip_count: u64,
    /// Number of times the loop is entered over the whole program run.
    pub invocations: u64,
    /// Address streams under the profiling input.
    pub profile: MemImage,
    /// Address streams under the execution input.
    pub exec: MemImage,
}

impl LoopKernel {
    /// Creates a kernel with a single invocation.
    #[must_use]
    pub fn new(name: impl Into<String>, ddg: Ddg, trip_count: u64) -> Self {
        LoopKernel {
            name: name.into(),
            ddg,
            trip_count,
            invocations: 1,
            profile: MemImage::new(),
            exec: MemImage::new(),
        }
    }

    /// Total dynamic iterations (`trip_count × invocations`).
    #[must_use]
    pub fn dyn_iterations(&self) -> u64 {
        self.trip_count.saturating_mul(self.invocations)
    }

    /// Total dynamic memory accesses executed by this loop.
    ///
    /// Replicated store instances are *not* counted separately: a replica
    /// group is a single architectural access.
    #[must_use]
    pub fn dyn_mem_accesses(&self) -> u64 {
        let sites = self
            .ddg
            .mem_nodes()
            .filter(|&n| self.ddg.replica_of(n).is_none())
            .count() as u64;
        sites.saturating_mul(self.dyn_iterations())
    }

    /// Total dynamic operations (memory and non-memory) executed.
    #[must_use]
    pub fn dyn_ops(&self) -> u64 {
        let ops = self
            .ddg
            .node_ids()
            .filter(|&n| self.ddg.replica_of(n).is_none())
            .count() as u64;
        ops.saturating_mul(self.dyn_iterations())
    }

    /// Checks that the trip count, invocation count and graph size are
    /// within their limits, that every memory operation has streams in
    /// both images and that the graph itself is valid.
    ///
    /// # Errors
    ///
    /// Returns the first limit exceeded, missing stream or graph defect
    /// found.
    pub fn validate(&self) -> Result<(), KernelError> {
        if self.trip_count == 0 {
            return Err(KernelError::ZeroTripCount);
        }
        let limits = [
            ("trip count", self.trip_count, MAX_TRIP_COUNT),
            ("invocations", self.invocations, MAX_INVOCATIONS),
            ("ops", self.ddg.node_count() as u64, MAX_KERNEL_OPS),
        ];
        if let Some(&(what, value, max)) = limits.iter().find(|(_, value, max)| value > max) {
            return Err(KernelError::TooLarge { what, value, max });
        }
        self.ddg.validate().map_err(KernelError::Graph)?;
        for n in self.ddg.mem_nodes() {
            let mem = self.ddg.node(n).mem_id().expect("memory node has a site");
            if self.profile.get(mem).is_none() {
                return Err(KernelError::MissingStream {
                    mem,
                    image: "profile",
                });
            }
            if self.exec.get(mem).is_none() {
                return Err(KernelError::MissingStream { mem, image: "exec" });
            }
        }
        Ok(())
    }
}

/// A benchmark: a named set of weighted loop kernels plus the cache
/// interleaving factor the paper assigns to it (Table 1: 2 or 4 bytes).
#[derive(Debug, Clone)]
pub struct Suite {
    /// Benchmark name (e.g. `"gsmdec"`).
    pub name: String,
    /// The loops that dominate the benchmark's execution.
    pub kernels: Vec<LoopKernel>,
    /// Cache interleaving factor in bytes used for this benchmark.
    pub interleave_bytes: u64,
}

impl Suite {
    /// Creates a suite.
    #[must_use]
    pub fn new(name: impl Into<String>, interleave_bytes: u64) -> Self {
        Suite {
            name: name.into(),
            kernels: Vec::new(),
            interleave_bytes,
        }
    }

    /// Total dynamic memory accesses across all kernels.
    #[must_use]
    pub fn dyn_mem_accesses(&self) -> u64 {
        self.kernels.iter().map(LoopKernel::dyn_mem_accesses).sum()
    }

    /// Total dynamic operations across all kernels.
    #[must_use]
    pub fn dyn_ops(&self) -> u64 {
        self.kernels.iter().map(LoopKernel::dyn_ops).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ddg::DdgBuilder;
    use crate::op::Width;

    #[test]
    fn affine_stream_walks_stride() {
        let s = AddressStream::Affine {
            base: 1000,
            stride: 4,
        };
        assert_eq!(s.addr_at(0), 1000);
        assert_eq!(s.addr_at(3), 1012);
        assert_eq!(s.stride(), Some(4));
    }

    #[test]
    fn affine_stream_negative_stride() {
        let s = AddressStream::Affine {
            base: 1000,
            stride: -8,
        };
        assert_eq!(s.addr_at(2), 984);
    }

    #[test]
    fn indexed_stream_cycles() {
        let s = AddressStream::Indexed(Arc::from([10u64, 20, 30]));
        assert_eq!(s.addr_at(0), 10);
        assert_eq!(s.addr_at(4), 20);
        assert_eq!(s.stride(), None);
    }

    #[test]
    #[should_panic(expected = "must not be empty")]
    fn indexed_stream_rejects_empty() {
        let s = AddressStream::Indexed(Arc::from(Vec::<u64>::new()));
        let _ = s.addr_at(0);
    }

    fn tiny_kernel() -> LoopKernel {
        let mut b = DdgBuilder::new();
        let ld = b.load(Width::W4);
        let st = b.store(Width::W4, &[ld]);
        let g = b.finish();
        let mem_ld = g.node(ld).mem_id().unwrap();
        let mem_st = g.node(st).mem_id().unwrap();
        let mut k = LoopKernel::new("tiny", g, 100);
        for img in [&mut k.profile, &mut k.exec] {
            img.insert(mem_ld, AddressStream::Affine { base: 0, stride: 4 });
            img.insert(
                mem_st,
                AddressStream::Affine {
                    base: 4096,
                    stride: 4,
                },
            );
        }
        k
    }

    #[test]
    fn kernel_validation_and_counts() {
        let k = tiny_kernel();
        assert!(k.validate().is_ok());
        assert_eq!(k.dyn_iterations(), 100);
        assert_eq!(k.dyn_mem_accesses(), 200);
        assert_eq!(k.dyn_ops(), 200);
    }

    #[test]
    fn kernel_validation_catches_missing_stream() {
        let mut k = tiny_kernel();
        let first = k.exec.iter().next().map(|(m, _)| m).unwrap();
        let mut stripped = MemImage::new();
        for (m, s) in k.exec.iter() {
            if m != first {
                stripped.insert(m, s.clone());
            }
        }
        k.exec = stripped;
        assert!(matches!(
            k.validate(),
            Err(KernelError::MissingStream { image: "exec", .. })
        ));
    }

    #[test]
    fn kernel_validation_catches_zero_trip() {
        let mut k = tiny_kernel();
        k.trip_count = 0;
        assert_eq!(k.validate(), Err(KernelError::ZeroTripCount));
    }

    #[test]
    fn kernel_validation_bounds_trip_invocations_and_ops() {
        let mut k = tiny_kernel();
        k.trip_count = MAX_TRIP_COUNT;
        k.invocations = MAX_INVOCATIONS;
        assert_eq!(k.validate(), Ok(()));
        k.trip_count = MAX_TRIP_COUNT + 1;
        assert_eq!(
            k.validate(),
            Err(KernelError::TooLarge {
                what: "trip count",
                value: MAX_TRIP_COUNT + 1,
                max: MAX_TRIP_COUNT
            })
        );
        k.trip_count = 1;
        k.invocations = 1 << 62;
        assert!(matches!(
            k.validate(),
            Err(KernelError::TooLarge {
                what: "invocations",
                ..
            })
        ));
        k.invocations = 1;
        let mut b = DdgBuilder::new();
        for _ in 0..=MAX_KERNEL_OPS {
            b.op(crate::op::OpKind::IntAlu, &[]);
        }
        k.ddg = b.finish();
        let err = k.validate().unwrap_err();
        assert_eq!(
            err.to_string(),
            format!(
                "kernel ops {} exceeds the limit {MAX_KERNEL_OPS}",
                MAX_KERNEL_OPS + 1
            )
        );
    }

    #[test]
    fn replicas_do_not_inflate_dynamic_counts() {
        let mut k = tiny_kernel();
        let st = k.ddg.stores().next().unwrap();
        let before = k.dyn_mem_accesses();
        let _ = k.ddg.clone_node(st);
        assert_eq!(k.dyn_mem_accesses(), before);
    }

    #[test]
    fn suite_aggregates() {
        let mut s = Suite::new("toy", 4);
        s.kernels.push(tiny_kernel());
        s.kernels.push(tiny_kernel());
        assert_eq!(s.dyn_mem_accesses(), 400);
        assert_eq!(s.dyn_ops(), 400);
        assert_eq!(s.interleave_bytes, 4);
    }

    #[test]
    fn mem_image_collects() {
        let img: MemImage = vec![
            (MemId(0), AddressStream::Affine { base: 0, stride: 2 }),
            (
                MemId(1),
                AddressStream::Affine {
                    base: 64,
                    stride: 2,
                },
            ),
        ]
        .into_iter()
        .collect();
        assert_eq!(img.len(), 2);
        assert_eq!(img.addr(MemId(1), 1), 66);
    }
}
