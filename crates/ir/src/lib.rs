//! Loop-kernel intermediate representation for the `distvliw` toolchain.
//!
//! This crate provides the compiler-side data structures used by the CGO'03
//! reproduction *"Local Scheduling Techniques for Memory Coherence in a
//! Clustered VLIW Processor with a Distributed Data Cache"*:
//!
//! * [`Operation`]s over virtual registers ([`VReg`]), including memory
//!   operations identified by a stable [`MemId`],
//! * [`Ddg`], a Data Dependence Graph with register-flow and memory
//!   dependence edges ([`DepKind`]) annotated with loop-carried distances,
//! * [`LoopKernel`], a schedulable loop body plus its dynamic metadata
//!   (trip count, invocation count) and its *profile* and *execution*
//!   [`MemImage`]s (per-memory-operation address streams),
//! * the profiling pass ([`profile`]),
//! * the exact alias oracle ([`alias`]): whether two address streams
//!   touch a common byte, at a given distance or anywhere, over a whole
//!   trip.
//!
//! The IR is deliberately small: it models exactly what the paper's
//! techniques need — typed operations, dependence edges with distances,
//! and reproducible address streams — and nothing else.
//!
//! # Example
//!
//! ```
//! use distvliw_ir::{Ddg, DdgBuilder, DepKind, OpKind, Width};
//!
//! // Build the paper's Figure 3 example graph: two loads feeding two
//! // stores and an add, with memory dependences between them.
//! let mut b = DdgBuilder::new();
//! let n1 = b.load(Width::W4);
//! let n2 = b.load(Width::W4);
//! let n3 = b.store(Width::W4, &[]);
//! let n4 = b.store(Width::W4, &[n1]);
//! let n5 = b.op(OpKind::IntAlu, &[n2]);
//! b.dep(n1, n3, DepKind::MemAnti, 0);
//! b.dep(n2, n3, DepKind::MemAnti, 0);
//! b.dep(n3, n4, DepKind::MemOut, 0);
//! let ddg: Ddg = b.finish();
//! assert_eq!(ddg.node_count(), 5);
//! assert!(ddg.node(n5).kind.is_arith());
//! # let _ = (n4, n5);
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod alias;
mod ddg;
mod dep;
mod kernel;
mod node_map;
mod op;
pub mod profile;

pub use ddg::{Ddg, DdgBuilder, DdgError, EdgeId, NodeId};
pub use dep::{Dep, DepKind};
pub use kernel::{
    AddressStream, KernelError, LoopKernel, MemImage, Suite, MAX_INVOCATIONS, MAX_KERNEL_OPS,
    MAX_TRIP_COUNT,
};
pub use node_map::NodeMap;
pub use op::{FuClass, MemId, MemRef, OpKind, Operation, VReg, Width};
pub use profile::{PrefInfo, PrefMap};
