//! Trace-file workloads: recorded address streams read from disk.
//!
//! The synthetic generators in [`crate::gen`] cover the paper's
//! calibrated Mediabench substitutes; this module opens the second
//! workload class the ROADMAP asks for — *recorded* address streams in a
//! simple line-oriented text format, so real (or captured) memory
//! behaviour can be replayed through the same pipeline. A [`Trace`]
//! parses from text, renders back canonically (write → parse → write is
//! byte-identical), and converts to a [`Suite`] whose memory dependences
//! are rediscovered honestly from the recorded streams via
//! [`crate::gen::add_true_mem_deps`].
//!
//! # Format (`v1`)
//!
//! Line-oriented, whitespace-separated tokens; `#` starts a comment,
//! blank lines are ignored. Numbers are decimal or `0x`-prefixed hex.
//!
//! ```text
//! trace <name> interleave=<2|4> clusters=<n>
//! kernel <name> trip=<n> invocations=<n>
//! mem <load|store> w<1|2|4|8> profile=<stream> exec=<stream> [home=<c>]
//! arith <int|fp> count=<n> depth=<d>
//! end
//! ```
//!
//! `trip`, `invocations` and a kernel's op total (one per `mem` record
//! plus every `arith` count) are bounded by the kernel limits of
//! [`LoopKernel::validate`]; a larger value is a [`TraceError::TooLarge`]
//! at its line.
//!
//! A `<stream>` is either `affine:<base>:<stride>` (stride must be
//! non-negative: recorded streams walk forward) or `idx:<a>,<a>,...`
//! (an explicit per-iteration address table, cycled). The optional
//! `home=<c>` annotation records the home cluster of the op's first
//! execution address on the *recording* machine and must be a valid
//! cluster id of the `clusters` header. See `docs/workloads.md` for the
//! full specification and the recording protocol.

use std::fmt;
use std::fmt::Write as _;
use std::sync::Arc;

use distvliw_ir::{
    AddressStream, DdgBuilder, LoopKernel, MemId, NodeId, OpKind, Suite, Width, MAX_INVOCATIONS,
    MAX_KERNEL_OPS, MAX_TRIP_COUNT,
};

use crate::gen::add_true_mem_deps;

/// One recorded address stream.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TraceStream {
    /// `addr(i) = base + stride * i` with a non-negative stride.
    Affine {
        /// Address at iteration 0.
        base: u64,
        /// Per-iteration increment in bytes.
        stride: u64,
    },
    /// Explicit per-iteration addresses; cycles when the loop runs
    /// longer than the table.
    Indexed(Vec<u64>),
}

impl TraceStream {
    /// Converts to the simulator's [`AddressStream`].
    #[must_use]
    pub fn to_stream(&self) -> AddressStream {
        match self {
            TraceStream::Affine { base, stride } => AddressStream::Affine {
                base: *base,
                stride: *stride as i64,
            },
            TraceStream::Indexed(table) => AddressStream::Indexed(Arc::from(table.as_slice())),
        }
    }

    fn render(&self) -> String {
        match self {
            TraceStream::Affine { base, stride } => format!("affine:0x{base:x}:{stride}"),
            TraceStream::Indexed(table) => {
                let addrs: Vec<String> = table.iter().map(|a| format!("0x{a:x}")).collect();
                format!("idx:{}", addrs.join(","))
            }
        }
    }
}

/// One recorded memory operation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceMemOp {
    /// `true` for stores.
    pub store: bool,
    /// Access width.
    pub width: Width,
    /// Stream under the profiling input.
    pub profile: TraceStream,
    /// Stream under the execution input.
    pub exec: TraceStream,
    /// Home cluster of the first execution address on the recording
    /// machine, if the recorder annotated it.
    pub home: Option<usize>,
}

/// One record of a trace kernel.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TraceOp {
    /// A memory operation with its recorded streams.
    Mem(TraceMemOp),
    /// A block of arithmetic operations. The first `depth` form a
    /// serial loop-carried recurrence (bounding the II, like the
    /// synthetic chain loops); the rest are independent padding.
    Arith {
        /// Floating-point arithmetic.
        fp: bool,
        /// Number of operations.
        count: usize,
        /// Recurrence depth carved out of `count`.
        depth: usize,
    },
}

/// One recorded loop.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceKernel {
    /// Loop name, unique within the trace.
    pub name: String,
    /// Iterations per invocation.
    pub trip: u64,
    /// Invocations over the recorded run.
    pub invocations: u64,
    /// Records in program order.
    pub ops: Vec<TraceOp>,
}

/// A parsed trace file: a named set of recorded loops plus the cache
/// interleave and cluster count of the recording machine.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Trace {
    /// Trace (suite) name.
    pub name: String,
    /// Interleaving factor in bytes of the recording machine (2 or 4,
    /// paper Table 1).
    pub interleave: u64,
    /// Cluster count of the recording machine (scopes `home=`
    /// annotations).
    pub clusters: usize,
    /// The recorded loops.
    pub kernels: Vec<TraceKernel>,
}

/// Typed parse/validation errors. Every variant that refers to file
/// content carries the 1-based line number.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TraceError {
    /// The file does not start with a `trace` header.
    MissingHeader,
    /// A second `trace` header appeared.
    DuplicateHeader(usize),
    /// A line starts with an unknown directive.
    UnknownDirective(usize, String),
    /// A record is missing a required field (truncated).
    Truncated(usize, &'static str),
    /// A token that should be a number is not one.
    BadNumber(usize, String),
    /// A field that must be positive is zero.
    ZeroField(usize, &'static str),
    /// A kernel's trip count, invocation count or running op total (its
    /// `mem` records plus its `arith` counts) exceeds the kernel limit
    /// (`distvliw_ir::MAX_TRIP_COUNT`, `MAX_INVOCATIONS`,
    /// `MAX_KERNEL_OPS`).
    TooLarge {
        /// Offending line.
        line: usize,
        /// `"trip"`, `"invocations"` or `"kernel ops"`.
        what: &'static str,
        /// The value read, or the op total it brings the kernel to.
        value: u64,
        /// The largest accepted value.
        max: u64,
    },
    /// A memory width other than 1, 2, 4 or 8 bytes.
    BadWidth(usize, String),
    /// An interleave other than 2 or 4 bytes.
    BadInterleave(usize, u64),
    /// An affine stream with a negative stride.
    NegativeStride(usize, i64),
    /// An indexed stream with no addresses.
    EmptyStream(usize),
    /// A `home=` cluster id outside the header's `clusters` range.
    BadClusterId {
        /// Offending line.
        line: usize,
        /// The annotated cluster id.
        home: usize,
        /// The header's cluster count.
        clusters: usize,
    },
    /// A complete record followed by unexpected extra tokens (a typo'd
    /// or misplaced field would otherwise be silently dropped).
    TrailingToken(usize, String),
    /// A `mem`/`arith` record outside a `kernel` block.
    OpOutsideKernel(usize),
    /// A `kernel` block without records.
    EmptyKernel(usize),
    /// The file ended inside a `kernel` block (no `end`).
    UnterminatedKernel,
    /// The trace declares no kernels.
    EmptyTrace,
    /// Reading the file failed.
    Io(String),
}

impl fmt::Display for TraceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TraceError::MissingHeader => write!(f, "missing `trace` header line"),
            TraceError::DuplicateHeader(l) => write!(f, "line {l}: duplicate `trace` header"),
            TraceError::UnknownDirective(l, d) => write!(f, "line {l}: unknown directive `{d}`"),
            TraceError::Truncated(l, what) => {
                write!(f, "line {l}: truncated record: missing {what}")
            }
            TraceError::BadNumber(l, t) => write!(f, "line {l}: `{t}` is not a number"),
            TraceError::ZeroField(l, what) => write!(f, "line {l}: {what} must be positive"),
            TraceError::TooLarge {
                line,
                what,
                value,
                max,
            } => write!(f, "line {line}: {what} {value} exceeds the limit {max}"),
            TraceError::BadWidth(l, w) => {
                write!(f, "line {l}: bad width `{w}` (expected w1, w2, w4 or w8)")
            }
            TraceError::BadInterleave(l, v) => {
                write!(f, "line {l}: bad interleave {v} (expected 2 or 4)")
            }
            TraceError::NegativeStride(l, s) => {
                write!(
                    f,
                    "line {l}: negative stride {s} (recorded streams walk forward)"
                )
            }
            TraceError::EmptyStream(l) => write!(f, "line {l}: indexed stream has no addresses"),
            TraceError::BadClusterId {
                line,
                home,
                clusters,
            } => write!(
                f,
                "line {line}: bad cluster id {home} (recording machine has {clusters} clusters)"
            ),
            TraceError::TrailingToken(l, t) => {
                write!(f, "line {l}: unexpected trailing token `{t}`")
            }
            TraceError::OpOutsideKernel(l) => {
                write!(f, "line {l}: record outside a `kernel` block")
            }
            TraceError::EmptyKernel(l) => write!(f, "line {l}: kernel block has no records"),
            TraceError::UnterminatedKernel => write!(f, "file ended inside a `kernel` block"),
            TraceError::EmptyTrace => write!(f, "trace declares no kernels"),
            TraceError::Io(e) => write!(f, "reading trace failed: {e}"),
        }
    }
}

impl std::error::Error for TraceError {}

/// `value`, or [`TraceError::TooLarge`] when it exceeds `max`.
fn at_most(line: usize, what: &'static str, value: u64, max: u64) -> Result<u64, TraceError> {
    if value > max {
        return Err(TraceError::TooLarge {
            line,
            what,
            value,
            max,
        });
    }
    Ok(value)
}

fn parse_u64(line: usize, tok: &str) -> Result<u64, TraceError> {
    let parsed = if let Some(hex) = tok.strip_prefix("0x") {
        u64::from_str_radix(hex, 16)
    } else {
        tok.parse::<u64>()
    };
    parsed.map_err(|_| TraceError::BadNumber(line, tok.to_string()))
}

/// Extracts the value of a `key=value` token, or a truncation error.
fn keyed<'a>(line: usize, tok: Option<&'a str>, key: &'static str) -> Result<&'a str, TraceError> {
    let tok = tok.ok_or(TraceError::Truncated(line, key))?;
    tok.strip_prefix(key)
        .and_then(|rest| rest.strip_prefix('='))
        .ok_or(TraceError::Truncated(line, key))
}

fn parse_stream(line: usize, tok: &str) -> Result<TraceStream, TraceError> {
    if let Some(rest) = tok.strip_prefix("affine:") {
        let mut parts = rest.splitn(2, ':');
        let base = parse_u64(line, parts.next().unwrap_or(""))?;
        let stride_tok = parts.next().ok_or(TraceError::Truncated(line, "stride"))?;
        // A `-` prefix is rejected before numeric conversion, so stride
        // magnitudes beyond i64 cannot overflow a negation (they still
        // report as the typed NegativeStride error, saturated).
        if let Some(magnitude) = stride_tok.strip_prefix('-') {
            let magnitude = parse_u64(line, magnitude)?;
            let stride = i64::try_from(magnitude).map_or(i64::MIN, |m| -m);
            return Err(TraceError::NegativeStride(line, stride));
        }
        let stride = parse_u64(line, stride_tok)?;
        // `AddressStream::Affine` carries an i64 stride; a magnitude
        // above i64::MAX would wrap negative on replay.
        if i64::try_from(stride).is_err() {
            return Err(TraceError::BadNumber(line, stride_tok.to_string()));
        }
        Ok(TraceStream::Affine { base, stride })
    } else if let Some(rest) = tok.strip_prefix("idx:") {
        if rest.is_empty() {
            return Err(TraceError::EmptyStream(line));
        }
        let table: Vec<u64> = rest
            .split(',')
            .map(|a| parse_u64(line, a))
            .collect::<Result<_, _>>()?;
        if table.is_empty() {
            return Err(TraceError::EmptyStream(line));
        }
        Ok(TraceStream::Indexed(table))
    } else {
        Err(TraceError::BadNumber(line, tok.to_string()))
    }
}

/// Parses a trace from text.
///
/// # Errors
///
/// Returns the first [`TraceError`] found, with its line number.
pub fn parse(text: &str) -> Result<Trace, TraceError> {
    let mut trace: Option<Trace> = None;
    // The open kernel: its first line, its op total so far, its records.
    let mut kernel: Option<(usize, u64, TraceKernel)> = None;

    for (idx, raw) in text.lines().enumerate() {
        let line = idx + 1;
        let content = raw.split('#').next().unwrap_or("").trim();
        if content.is_empty() {
            continue;
        }
        let mut toks = content.split_whitespace();
        let directive = toks.next().expect("nonempty line has a first token");
        match directive {
            "trace" => {
                if trace.is_some() {
                    return Err(TraceError::DuplicateHeader(line));
                }
                let name = toks
                    .next()
                    .ok_or(TraceError::Truncated(line, "trace name"))?
                    .to_string();
                let interleave = parse_u64(line, keyed(line, toks.next(), "interleave")?)?;
                if !matches!(interleave, 2 | 4) {
                    return Err(TraceError::BadInterleave(line, interleave));
                }
                let clusters = parse_u64(line, keyed(line, toks.next(), "clusters")?)? as usize;
                if clusters == 0 {
                    return Err(TraceError::ZeroField(line, "clusters"));
                }
                trace = Some(Trace {
                    name,
                    interleave,
                    clusters,
                    kernels: Vec::new(),
                });
            }
            "kernel" => {
                if trace.is_none() {
                    return Err(TraceError::MissingHeader);
                }
                if kernel.is_some() {
                    return Err(TraceError::UnterminatedKernel);
                }
                let name = toks
                    .next()
                    .ok_or(TraceError::Truncated(line, "kernel name"))?
                    .to_string();
                let trip = parse_u64(line, keyed(line, toks.next(), "trip")?)?;
                if trip == 0 {
                    return Err(TraceError::ZeroField(line, "trip"));
                }
                at_most(line, "trip", trip, MAX_TRIP_COUNT)?;
                let invocations = parse_u64(line, keyed(line, toks.next(), "invocations")?)?;
                if invocations == 0 {
                    return Err(TraceError::ZeroField(line, "invocations"));
                }
                at_most(line, "invocations", invocations, MAX_INVOCATIONS)?;
                kernel = Some((
                    line,
                    0,
                    TraceKernel {
                        name,
                        trip,
                        invocations,
                        ops: Vec::new(),
                    },
                ));
            }
            "mem" => {
                if trace.is_none() {
                    return Err(TraceError::MissingHeader);
                }
                let (_, ops, k) = kernel.as_mut().ok_or(TraceError::OpOutsideKernel(line))?;
                *ops = at_most(line, "kernel ops", *ops + 1, MAX_KERNEL_OPS)?;
                let dir = toks
                    .next()
                    .ok_or(TraceError::Truncated(line, "load|store"))?;
                let store = match dir {
                    "load" => false,
                    "store" => true,
                    other => return Err(TraceError::UnknownDirective(line, other.to_string())),
                };
                let wtok = toks.next().ok_or(TraceError::Truncated(line, "width"))?;
                let width = wtok
                    .strip_prefix('w')
                    .and_then(|n| n.parse::<u64>().ok())
                    .and_then(Width::from_bytes)
                    .ok_or_else(|| TraceError::BadWidth(line, wtok.to_string()))?;
                let profile = parse_stream(line, keyed(line, toks.next(), "profile")?)?;
                let exec = parse_stream(line, keyed(line, toks.next(), "exec")?)?;
                let home = match toks.next() {
                    None => None,
                    // Anything that is not the optional `home=` field is
                    // a stray token, not a missing one — report it as
                    // such rather than as Truncated("home").
                    Some(tok) if !tok.starts_with("home=") => {
                        return Err(TraceError::TrailingToken(line, tok.to_string()));
                    }
                    Some(tok) => {
                        let home = parse_u64(line, keyed(line, Some(tok), "home")?)? as usize;
                        let clusters = trace.as_ref().expect("header parsed").clusters;
                        if home >= clusters {
                            return Err(TraceError::BadClusterId {
                                line,
                                home,
                                clusters,
                            });
                        }
                        Some(home)
                    }
                };
                k.ops.push(TraceOp::Mem(TraceMemOp {
                    store,
                    width,
                    profile,
                    exec,
                    home,
                }));
            }
            "arith" => {
                if trace.is_none() {
                    return Err(TraceError::MissingHeader);
                }
                let (_, ops, k) = kernel.as_mut().ok_or(TraceError::OpOutsideKernel(line))?;
                let kind = toks.next().ok_or(TraceError::Truncated(line, "int|fp"))?;
                let fp = match kind {
                    "int" => false,
                    "fp" => true,
                    other => return Err(TraceError::UnknownDirective(line, other.to_string())),
                };
                let count = parse_u64(line, keyed(line, toks.next(), "count")?)?;
                if count == 0 {
                    return Err(TraceError::ZeroField(line, "count"));
                }
                // Checked before anything is built, so a hostile count
                // is an error here rather than an allocation later.
                *ops = at_most(
                    line,
                    "kernel ops",
                    ops.saturating_add(count),
                    MAX_KERNEL_OPS,
                )?;
                let depth = parse_u64(line, keyed(line, toks.next(), "depth")?)? as usize;
                k.ops.push(TraceOp::Arith {
                    fp,
                    count: count as usize,
                    depth,
                });
            }
            "end" => {
                let trace = trace.as_mut().ok_or(TraceError::MissingHeader)?;
                let (start, _, k) = kernel.take().ok_or(TraceError::OpOutsideKernel(line))?;
                if k.ops.is_empty() {
                    return Err(TraceError::EmptyKernel(start));
                }
                trace.kernels.push(k);
            }
            other => return Err(TraceError::UnknownDirective(line, other.to_string())),
        }
        // Every arm consumed its full record; anything left over is a
        // typo'd or misplaced field, not something to drop silently.
        if let Some(extra) = toks.next() {
            return Err(TraceError::TrailingToken(line, extra.to_string()));
        }
    }
    if kernel.is_some() {
        return Err(TraceError::UnterminatedKernel);
    }
    let trace = trace.ok_or(TraceError::MissingHeader)?;
    if trace.kernels.is_empty() {
        return Err(TraceError::EmptyTrace);
    }
    Ok(trace)
}

/// Loads and parses a trace file.
///
/// # Errors
///
/// Returns [`TraceError::Io`] when reading fails, or the first parse
/// error.
pub fn load(path: impl AsRef<std::path::Path>) -> Result<Trace, TraceError> {
    let path = path.as_ref();
    let text = std::fs::read_to_string(path)
        .map_err(|e| TraceError::Io(format!("{}: {e}", path.display())))?;
    parse(&text)
}

/// Names are single whitespace-free tokens in the file format; anything
/// a recorder might carry that would break tokenization (whitespace, a
/// `#` that the comment stripper would swallow) is mapped to `_` on
/// write, so a rendered trace always re-parses.
fn sanitize_name(name: &str) -> String {
    let cleaned: String = name
        .chars()
        .map(|c| {
            if c.is_whitespace() || c == '#' {
                '_'
            } else {
                c
            }
        })
        .collect();
    if cleaned.is_empty() {
        "_".to_string()
    } else {
        cleaned
    }
}

impl Trace {
    /// Renders the trace in canonical form: parsing the output and
    /// rendering again is byte-identical. Names are sanitized to single
    /// tokens (`sanitize_name`), so the output re-parses even when a
    /// recorded suite carried a name the format cannot hold.
    #[must_use]
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "# distvliw address-stream trace v1");
        let _ = writeln!(
            out,
            "trace {} interleave={} clusters={}",
            sanitize_name(&self.name),
            self.interleave,
            self.clusters
        );
        for k in &self.kernels {
            let _ = writeln!(
                out,
                "kernel {} trip={} invocations={}",
                sanitize_name(&k.name),
                k.trip,
                k.invocations
            );
            for op in &k.ops {
                match op {
                    TraceOp::Mem(m) => {
                        let dir = if m.store { "store" } else { "load" };
                        let home = m.home.map_or(String::new(), |h| format!(" home={h}"));
                        let _ = writeln!(
                            out,
                            "mem {dir} w{} profile={} exec={}{home}",
                            m.width.bytes(),
                            m.profile.render(),
                            m.exec.render()
                        );
                    }
                    TraceOp::Arith { fp, count, depth } => {
                        let kind = if *fp { "fp" } else { "int" };
                        let _ = writeln!(out, "arith {kind} count={count} depth={depth}");
                    }
                }
            }
            let _ = writeln!(out, "end");
        }
        out
    }

    /// Converts the trace into a pipeline-ready [`Suite`]. Memory
    /// dependences are rediscovered from the recorded *execution*
    /// streams by the same honest disambiguation pass the synthetic
    /// generators use ([`add_true_mem_deps`]), so a replayed trace gets
    /// exactly the MF/MA/MO edges its addresses imply.
    #[must_use]
    pub fn to_suite(&self) -> Suite {
        let mut suite = Suite::new(self.name.clone(), self.interleave);
        for tk in &self.kernels {
            let mut b = DdgBuilder::new();
            let mut profile_streams: Vec<(MemId, AddressStream)> = Vec::new();
            let mut exec_streams: Vec<(MemId, AddressStream)> = Vec::new();
            let mut last_load: Option<NodeId> = None;
            for op in &tk.ops {
                match op {
                    TraceOp::Mem(m) => {
                        let srcs: Vec<NodeId> = last_load.into_iter().collect();
                        let node = if m.store {
                            b.store(m.width, &srcs)
                        } else {
                            let l = b.load(m.width);
                            last_load = Some(l);
                            l
                        };
                        let mem = b.graph().node(node).mem_id().expect("mem op");
                        profile_streams.push((mem, m.profile.to_stream()));
                        exec_streams.push((mem, m.exec.to_stream()));
                    }
                    TraceOp::Arith { fp, count, depth } => {
                        let kind = if *fp { OpKind::FpAlu } else { OpKind::IntAlu };
                        let mul = if *fp { OpKind::FpMul } else { OpKind::IntMul };
                        let depth = (*depth).min(*count);
                        if depth > 0 {
                            let first = b.op(kind, &[]);
                            let mut cur = first;
                            for _ in 1..depth {
                                cur = b.op(kind, &[cur]);
                            }
                            b.recurrence(cur, first, 1);
                        }
                        let mut prev: Option<NodeId> = None;
                        for i in depth..*count {
                            let srcs: Vec<NodeId> = prev
                                .into_iter()
                                .chain(if i == depth { last_load } else { None })
                                .collect();
                            let n = b.op(if i % 5 == 4 { mul } else { kind }, &srcs);
                            prev = if i % 4 == 3 { None } else { Some(n) };
                        }
                    }
                }
            }
            let mut kernel = LoopKernel::new(tk.name.clone(), b.finish(), tk.trip);
            kernel.invocations = tk.invocations;
            kernel.profile.extend(profile_streams);
            kernel.exec.extend(exec_streams);
            add_true_mem_deps(&mut kernel);
            suite.kernels.push(kernel);
        }
        suite
    }

    /// Records a trace from an existing suite: every memory site's
    /// profile and execution streams are captured (affine streams
    /// verbatim when their stride is non-negative, otherwise sampled
    /// into an indexed table over `sample` iterations), annotated with
    /// the home cluster of the first execution address on a
    /// `clusters`-cluster machine. Arithmetic is summarized as one
    /// independent padding block per kernel — a trace records memory
    /// behaviour, not the IR.
    #[must_use]
    pub fn from_suite(suite: &Suite, clusters: usize, sample: usize) -> Trace {
        let sample = sample.max(1);
        let capture = |s: &AddressStream| match s {
            AddressStream::Affine { base, stride } if *stride >= 0 => TraceStream::Affine {
                base: *base,
                stride: *stride as u64,
            },
            other => TraceStream::Indexed((0..sample as u64).map(|i| other.addr_at(i)).collect()),
        };
        let kernels = suite
            .kernels
            .iter()
            .map(|k| {
                let mut ops = Vec::new();
                for n in k.ddg.mem_nodes() {
                    if k.ddg.replica_of(n).is_some() {
                        continue;
                    }
                    let node = k.ddg.node(n);
                    let mem = node.mem_id().expect("mem op");
                    let exec = k.exec.get(mem).expect("bound exec stream");
                    let home =
                        ((exec.addr_at(0) / suite.interleave_bytes) % clusters as u64) as usize;
                    ops.push(TraceOp::Mem(TraceMemOp {
                        store: node.is_store(),
                        width: node.mem.expect("mem op").width,
                        profile: capture(k.profile.get(mem).expect("bound profile stream")),
                        exec: capture(exec),
                        home: Some(home),
                    }));
                }
                let arith = k
                    .ddg
                    .node_ids()
                    .filter(|&n| !k.ddg.node(n).is_memory())
                    .count();
                if arith > 0 {
                    let fp = k
                        .ddg
                        .node_ids()
                        .any(|n| matches!(k.ddg.node(n).kind, OpKind::FpAlu | OpKind::FpMul));
                    ops.push(TraceOp::Arith {
                        fp,
                        count: arith,
                        depth: 0,
                    });
                }
                TraceKernel {
                    name: k.name.clone(),
                    trip: k.trip_count,
                    invocations: k.invocations,
                    ops,
                }
            })
            .collect();
        Trace {
            name: suite.name.clone(),
            interleave: suite.interleave_bytes,
            clusters,
            kernels,
        }
    }
}

/// The example traces committed under `traces/`, parsed at build time.
///
/// # Panics
///
/// Panics if a bundled trace fails to parse (a commit-time invariant,
/// pinned by this crate's tests).
#[must_use]
pub fn bundled_traces() -> Vec<Trace> {
    [
        include_str!("../../../traces/fir8.trace"),
        include_str!("../../../traces/ptrchase.trace"),
    ]
    .iter()
    .map(|text| parse(text).expect("bundled trace parses"))
    .collect()
}

/// The bundled example traces as pipeline-ready suites.
#[must_use]
pub fn trace_suites() -> Vec<Suite> {
    bundled_traces().iter().map(Trace::to_suite).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_trace() -> Trace {
        Trace {
            name: "toy".into(),
            interleave: 4,
            clusters: 4,
            kernels: vec![TraceKernel {
                name: "k0".into(),
                trip: 16,
                invocations: 2,
                ops: vec![
                    TraceOp::Mem(TraceMemOp {
                        store: false,
                        width: Width::W4,
                        profile: TraceStream::Affine {
                            base: 0x1000,
                            stride: 16,
                        },
                        exec: TraceStream::Affine {
                            base: 0x9000,
                            stride: 16,
                        },
                        home: Some(0),
                    }),
                    TraceOp::Mem(TraceMemOp {
                        store: true,
                        width: Width::W8,
                        profile: TraceStream::Indexed(vec![0x1002, 0x1012]),
                        exec: TraceStream::Indexed(vec![0x9002, 0x9012]),
                        home: None,
                    }),
                    TraceOp::Arith {
                        fp: false,
                        count: 6,
                        depth: 2,
                    },
                ],
            }],
        }
    }

    #[test]
    fn write_parse_write_is_byte_identical() {
        let first = sample_trace().render();
        let parsed = parse(&first).unwrap();
        assert_eq!(parsed, sample_trace());
        assert_eq!(parsed.render(), first);
    }

    #[test]
    fn bundled_traces_round_trip_and_validate() {
        for trace in bundled_traces() {
            let text = trace.render();
            let reparsed = parse(&text).unwrap();
            assert_eq!(reparsed, trace, "{}", trace.name);
            assert_eq!(reparsed.render(), text, "{}", trace.name);
            let suite = trace.to_suite();
            assert!(!suite.kernels.is_empty(), "{}", trace.name);
            for k in &suite.kernels {
                assert!(
                    k.validate().is_ok(),
                    "{}/{}: {:?}",
                    trace.name,
                    k.name,
                    k.validate()
                );
            }
        }
    }

    #[test]
    fn comments_and_number_bases_are_accepted() {
        let text = "\n# a comment\ntrace t interleave=2 clusters=2  # trailing\n\
                    kernel k trip=0x10 invocations=1\n\
                    mem load w2 profile=affine:4096:2 exec=affine:0x1000:2\n\
                    end\n";
        let t = parse(text).unwrap();
        assert_eq!(t.kernels[0].trip, 16);
        let TraceOp::Mem(m) = &t.kernels[0].ops[0] else {
            panic!("mem op");
        };
        assert_eq!(m.profile, m.exec);
    }

    #[test]
    fn malformed_lines_produce_typed_errors() {
        let hdr = "trace t interleave=4 clusters=4\n";
        let krn = "kernel k trip=8 invocations=1\n";
        let over = |line, what, value, max| TraceError::TooLarge {
            line,
            what,
            value,
            max,
        };
        let cases: [(&str, TraceError); 16] = [
            (
                "kernel k trip=8 invocations=1\nend\n",
                TraceError::MissingHeader,
            ),
            (
                "trace t interleave=4 clusters=4\ntrace u interleave=2 clusters=2\n",
                TraceError::DuplicateHeader(2),
            ),
            (
                "trace t interleave=3 clusters=4\n",
                TraceError::BadInterleave(1, 3),
            ),
            (
                "trace t interleave=4 clusters=0\n",
                TraceError::ZeroField(1, "clusters"),
            ),
            (
                &format!("{hdr}{krn}mem load w3 profile=affine:0:4 exec=affine:0:4\nend\n"),
                TraceError::BadWidth(3, "w3".into()),
            ),
            (
                &format!("{hdr}{krn}mem load w4 profile=affine:0:-4 exec=affine:0:4\nend\n"),
                TraceError::NegativeStride(3, -4),
            ),
            (
                &format!("{hdr}{krn}mem load w4 profile=affine:0:4 exec=affine:0:4 home=7\nend\n"),
                TraceError::BadClusterId {
                    line: 3,
                    home: 7,
                    clusters: 4,
                },
            ),
            (
                &format!("{hdr}{krn}mem load w4 profile=affine:0:4\nend\n"),
                TraceError::Truncated(3, "exec"),
            ),
            (
                &format!("{hdr}mem load w4 profile=affine:0:4 exec=affine:0:4\n"),
                TraceError::OpOutsideKernel(2),
            ),
            (
                &format!("{hdr}{krn}mem load w4 profile=idx: exec=affine:0:4\nend\n"),
                TraceError::EmptyStream(3),
            ),
            (
                &format!("{hdr}{krn}mem load w4 profile=affine:0:4 exec=affine:0:4\n"),
                TraceError::UnterminatedKernel,
            ),
            // Inputs past the kernel limits fail at their line, before
            // `to_suite` could build a graph or a simulation scale them.
            (
                &format!("{hdr}kernel k trip=8 invocations=4611686018427387904\nend\n"),
                over(2, "invocations", 1 << 62, MAX_INVOCATIONS),
            ),
            (
                &format!("{hdr}kernel k trip=65537 invocations=1\nend\n"),
                over(2, "trip", MAX_TRIP_COUNT + 1, MAX_TRIP_COUNT),
            ),
            (
                &format!("{hdr}{krn}arith int count=18446744073709551615 depth=0\nend\n"),
                over(3, "kernel ops", u64::MAX, MAX_KERNEL_OPS),
            ),
            (
                &format!(
                    "{hdr}{krn}arith int count=4000 depth=0\narith fp count=97 depth=0\nend\n"
                ),
                over(4, "kernel ops", MAX_KERNEL_OPS + 1, MAX_KERNEL_OPS),
            ),
            (
                &format!(
                    "{hdr}{krn}arith int count=4096 depth=0\n\
                     mem load w4 profile=affine:0:4 exec=affine:0:4\nend\n"
                ),
                over(4, "kernel ops", MAX_KERNEL_OPS + 1, MAX_KERNEL_OPS),
            ),
        ];
        for (text, want) in cases {
            assert_eq!(parse(text).unwrap_err(), want, "input: {text}");
        }
        // At the limits a kernel parses, and the op total starts over
        // with each kernel.
        let full = format!(
            "{hdr}kernel k trip=65536 invocations=16384\narith int count=4096 depth=0\nend\n"
        );
        assert_eq!(
            parse(&format!("{full}{}", &full[hdr.len()..]))
                .unwrap()
                .kernels
                .len(),
            2
        );
        assert_eq!(parse(hdr).unwrap_err(), TraceError::EmptyTrace);
        assert_eq!(
            parse(&format!("{hdr}{krn}end\n")).unwrap_err(),
            TraceError::EmptyKernel(2)
        );
        assert!(matches!(
            parse(&format!("{hdr}{krn}warp speed\nend\n")).unwrap_err(),
            TraceError::UnknownDirective(3, _)
        ));
        assert!(matches!(
            parse(&format!("{hdr}kernel k trip=zap invocations=1\nend\n")).unwrap_err(),
            TraceError::BadNumber(2, _)
        ));
        assert!(matches!(
            load("/nonexistent/path.trace").unwrap_err(),
            TraceError::Io(_)
        ));
    }

    #[test]
    fn extreme_strides_are_typed_errors_not_panics() {
        let hdr = "trace t interleave=4 clusters=4\nkernel k trip=8 invocations=1\n";
        // i64::MIN magnitude used to overflow a negation; it must report
        // as a (saturated) NegativeStride.
        let text = format!(
            "{hdr}mem load w4 profile=affine:0:-9223372036854775808 exec=affine:0:4\nend\n"
        );
        assert_eq!(
            parse(&text).unwrap_err(),
            TraceError::NegativeStride(3, i64::MIN)
        );
        // A negative magnitude beyond i64 must not wrap into a positive
        // stride.
        let text = format!(
            "{hdr}mem load w4 profile=affine:0:-18446744073709551615 exec=affine:0:4\nend\n"
        );
        assert!(matches!(
            parse(&text).unwrap_err(),
            TraceError::NegativeStride(3, _)
        ));
        // A positive stride beyond i64::MAX would wrap negative on
        // replay; reject it.
        let text =
            format!("{hdr}mem load w4 profile=affine:0:9223372036854775808 exec=affine:0:4\nend\n");
        assert!(matches!(
            parse(&text).unwrap_err(),
            TraceError::BadNumber(3, _)
        ));
    }

    #[test]
    fn trailing_tokens_are_rejected() {
        let hdr = "trace t interleave=4 clusters=4\n";
        let krn = "kernel k trip=8 invocations=1\n";
        for text in [
            format!(
                "{hdr}{krn}mem load w4 profile=affine:0:4 exec=affine:0:4 home=0 width=8\nend\n"
            ),
            // A typo'd optional field is a stray token, not a missing
            // `home`.
            format!("{hdr}{krn}mem load w4 profile=affine:0:4 exec=affine:0:4 hme=2\nend\n"),
            format!("{hdr}{krn}mem load w4 profile=affine:0:4 exec=affine:0:4\nend extra\n"),
            "trace t interleave=4 clusters=4 extra\n".to_string(),
            format!("{hdr}kernel k trip=8 invocations=1 extra\nend\n"),
            format!("{hdr}{krn}arith int count=4 depth=0 extra\nend\n"),
        ] {
            assert!(
                matches!(parse(&text).unwrap_err(), TraceError::TrailingToken(_, _)),
                "input: {text}"
            );
        }
    }

    #[test]
    fn rendered_names_are_always_single_tokens() {
        // A recorded suite whose name would break tokenization (or be
        // swallowed as a comment) still renders to a parseable file.
        let mut t = sample_trace();
        t.name = "my suite #1".into();
        t.kernels[0].name = String::new();
        let text = t.render();
        let reparsed = parse(&text).unwrap();
        assert_eq!(reparsed.name, "my_suite__1");
        assert_eq!(reparsed.kernels[0].name, "_");
        assert_eq!(reparsed.render(), text, "canonical after sanitizing");
    }

    #[test]
    fn to_suite_discovers_real_dependences() {
        // The sample's store (W8 at 0x9002, then 0x9012) overlaps the
        // load walk (W4 at 0x9000+16i): the disambiguator must add MA
        // edges, and the kernel must validate and simulate.
        let suite = sample_trace().to_suite();
        let k = &suite.kernels[0];
        assert!(k.validate().is_ok(), "{:?}", k.validate());
        assert!(
            k.ddg.mem_dep_edges().count() > 0,
            "recorded overlap must surface as dependences"
        );
        assert_eq!(k.dyn_iterations(), 32);
    }

    #[test]
    fn recording_a_synthetic_suite_round_trips() {
        let suite = crate::suite("gsmdec").unwrap();
        let trace = Trace::from_suite(&suite, 4, 64);
        assert_eq!(trace.name, "gsmdec");
        assert_eq!(trace.interleave, 2);
        // write → parse → write byte identity holds for recordings too.
        let text = trace.render();
        let reparsed = parse(&text).unwrap();
        assert_eq!(reparsed, trace);
        assert_eq!(reparsed.render(), text);
        // The replayed suite carries the same dynamic access volume.
        let replayed = trace.to_suite();
        assert_eq!(replayed.dyn_mem_accesses(), suite.dyn_mem_accesses());
        for k in &replayed.kernels {
            assert!(k.validate().is_ok(), "{}: {:?}", k.name, k.validate());
        }
    }
}
