//! Content-addressed cache keys for experiment results.
//!
//! The serving layer memoizes one *cell* of an experiment grid — the
//! result of running a benchmark suite under one `(machine, options,
//! solution, heuristic)` combination — keyed by a canonical byte
//! encoding of everything the result depends on. Keys carry the full
//! encoding (lookups compare the bytes) with one deliberate exception:
//! the suite's graph/stream content — which runs to ~100 KB — enters as
//! a 128-bit [`digest_fingerprint`] of its [`suite_digest`], so machine
//! and option collisions are impossible and suite-content collisions
//! require two independent 64-bit FNV halves to collide at once.

use distvliw_arch::MachineConfig;
use distvliw_ir::{AddressStream, DepKind, LoopKernel, OpKind, Suite};
use distvliw_sched::Heuristic;

use crate::pipeline::{PipelineOptions, Solution};

/// Version of the [`cell_key`] encoding; bump when the encoded field set
/// changes, and also when the value a key computes changes (a scheduler
/// change that alters some cell's result). Like
/// [`distvliw_arch::CANONICAL_BYTES_VERSION`], this is part of the
/// durable-state era: the serving layer's on-disk stores hold raw cell
/// keys and their values, so either change must invalidate them (see
/// `docs/persistence.md`) rather than let old keys alias new ones or
/// serve values the running binary would no longer compute.
pub const CELL_KEY_VERSION: u8 = 6;

/// A content-addressed cache key: the canonical encoding of one
/// experiment cell plus its precomputed 64-bit FNV-1a hash.
///
/// Equality is byte equality; the hash only accelerates map lookups.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CacheKey {
    bytes: Vec<u8>,
    hash: u64,
}

impl CacheKey {
    /// Wraps an already-canonical encoding.
    #[must_use]
    pub fn from_bytes(bytes: Vec<u8>) -> Self {
        let hash = fnv1a64(&bytes);
        CacheKey { bytes, hash }
    }

    /// The canonical encoding.
    #[must_use]
    pub fn bytes(&self) -> &[u8] {
        &self.bytes
    }

    /// The precomputed FNV-1a hash of the encoding.
    #[must_use]
    pub fn hash64(&self) -> u64 {
        self.hash
    }
}

impl std::hash::Hash for CacheKey {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        state.write_u64(self.hash);
    }
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// 64-bit FNV-1a over `bytes`.
#[must_use]
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h = FNV_OFFSET;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}

/// Appends a length-prefixed string (length prefix keeps adjacent
/// fields from aliasing across boundaries).
fn push_str(out: &mut Vec<u8>, s: &str) {
    out.extend_from_slice(&(s.len() as u64).to_le_bytes());
    out.extend_from_slice(s.as_bytes());
}

pub(crate) fn push_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

pub(crate) fn op_tag(kind: OpKind) -> u8 {
    match kind {
        OpKind::Load => 0,
        OpKind::Store => 1,
        OpKind::IntAlu => 2,
        OpKind::IntMul => 3,
        OpKind::FpAlu => 4,
        OpKind::FpMul => 5,
        OpKind::Copy => 6,
        OpKind::FakeConsumer => 7,
    }
}

pub(crate) fn dep_tag(kind: DepKind) -> u8 {
    match kind {
        DepKind::RegFlow => 0,
        DepKind::MemFlow => 1,
        DepKind::MemAnti => 2,
        DepKind::MemOut => 3,
        DepKind::Sync => 4,
    }
}

pub(crate) fn push_stream(out: &mut Vec<u8>, stream: &AddressStream) {
    match stream {
        AddressStream::Affine { base, stride } => {
            out.push(0);
            push_u64(out, *base);
            push_u64(out, *stride as u64);
        }
        AddressStream::Indexed(addrs) => {
            out.push(1);
            push_u64(out, addrs.len() as u64);
            for &a in addrs.iter() {
                push_u64(out, a);
            }
        }
    }
}

/// A content digest of `suite`: name, interleave, and the full graph
/// and address-stream content of every kernel (operations, dependence
/// edges with kinds and distances, profile and execution streams). Two
/// suites digest equal **iff** they describe the same workload, so a
/// regenerated suite changes every derived cache key even when its
/// name and graph sizes collide with the old one.
///
/// The digest walks every kernel, so callers that key many cells
/// against a fixed suite set (the serving engine) should compute it
/// once per suite and reuse its fingerprint via
/// [`cell_key_from_fingerprint`].
#[must_use]
pub fn suite_digest(suite: &Suite) -> Vec<u8> {
    kernels_digest(&suite.name, suite.interleave_bytes, &suite.kernels)
}

/// The [`suite_digest`] of a suite named `name` holding `kernels` under
/// an interleave of `interleave_bytes`, without building the suite.
pub(crate) fn kernels_digest(name: &str, interleave_bytes: u64, kernels: &[LoopKernel]) -> Vec<u8> {
    let mut out = Vec::with_capacity(1024);
    push_str(&mut out, name);
    push_u64(&mut out, interleave_bytes);
    push_u64(&mut out, kernels.len() as u64);
    for kernel in kernels {
        push_str(&mut out, &kernel.name);
        push_u64(&mut out, kernel.trip_count);
        push_u64(&mut out, kernel.invocations);
        let ddg = &kernel.ddg;
        push_u64(&mut out, ddg.node_ids().count() as u64);
        for n in ddg.node_ids() {
            let node = ddg.node(n);
            out.push(op_tag(node.kind));
            push_u64(&mut out, u64::from(ddg.seq(n)));
            match node.mem {
                None => out.push(0xff),
                Some(mem) => {
                    out.push(0);
                    push_u64(&mut out, u64::from(mem.mem.0));
                    push_u64(&mut out, mem.width.bytes());
                }
            }
        }
        push_u64(&mut out, ddg.deps().count() as u64);
        for (_, d) in ddg.deps() {
            push_u64(&mut out, u64::from(d.src.0));
            push_u64(&mut out, u64::from(d.dst.0));
            out.push(dep_tag(d.kind));
            push_u64(&mut out, u64::from(d.distance));
        }
        for image in [&kernel.profile, &kernel.exec] {
            push_u64(&mut out, image.len() as u64);
            for (mem, stream) in image.iter() {
                push_u64(&mut out, u64::from(mem.0));
                push_stream(&mut out, stream);
            }
        }
    }
    out
}

/// A compact 128-bit fingerprint of a [`suite_digest`]: two
/// independent 64-bit FNV-1a lanes (standard and alternate offset
/// basis) run over the bytes in one pass. Digests run to ~100 KB for the
/// Indexed-stream suites, so keys embed this fingerprint instead of the
/// raw digest — computing it once per suite keeps warm-path key
/// derivation O(1) instead of re-hashing 100 KB per cell per request.
#[must_use]
pub fn digest_fingerprint(digest: &[u8]) -> [u8; 16] {
    // The second lane's perturbed basis makes the halves independent;
    // together they make accidental suite-content collisions (the only
    // part of a key not compared byte-for-byte) vanishingly unlikely.
    // The lanes' multiply chains do not depend on each other, so one
    // loop runs both in the time of one.
    let mut a = FNV_OFFSET;
    let mut b = FNV_OFFSET ^ 0x9e37_79b9_7f4a_7c15;
    for &byte in digest {
        a = (a ^ u64::from(byte)).wrapping_mul(FNV_PRIME);
        b = (b ^ u64::from(byte)).wrapping_mul(FNV_PRIME);
    }
    let mut out = [0u8; 16];
    out[..8].copy_from_slice(&a.to_le_bytes());
    out[8..].copy_from_slice(&b.to_le_bytes());
    out
}

/// The canonical key of one experiment cell: a suite (by the
/// [`digest_fingerprint`] of its [`suite_digest`]) run on `machine`
/// (with the suite's interleave applied by the pipeline) under
/// `options`, `solution` and `heuristic`. The machine contributes its
/// full [`MachineConfig::canonical_bytes`] encoding.
#[must_use]
pub fn cell_key_from_fingerprint(
    fingerprint: &[u8; 16],
    machine: &MachineConfig,
    options: &PipelineOptions,
    solution: Solution,
    heuristic: Heuristic,
) -> CacheKey {
    cell_key_from_encoded(
        fingerprint,
        &machine.canonical_bytes(),
        options,
        solution,
        heuristic,
    )
}

/// [`cell_key_from_fingerprint`] for a machine already encoded by
/// [`MachineConfig::canonical_bytes`], so a caller keying many cells on
/// a few machines encodes each machine once.
#[must_use]
pub fn cell_key_from_encoded(
    fingerprint: &[u8; 16],
    machine_bytes: &[u8],
    options: &PipelineOptions,
    solution: Solution,
    heuristic: Heuristic,
) -> CacheKey {
    let mut out = Vec::with_capacity(32 + machine_bytes.len());
    out.push(CELL_KEY_VERSION);

    out.extend_from_slice(fingerprint);

    push_u64(&mut out, machine_bytes.len() as u64);
    out.extend_from_slice(machine_bytes);

    out.push(u8::from(options.relax_latencies));

    out.push(match solution {
        Solution::Free => 0,
        Solution::Mdc => 1,
        Solution::Ddgt => 2,
        Solution::Hybrid => 3,
    });
    out.push(match heuristic {
        Heuristic::PrefClus => 0,
        Heuristic::MinComs => 1,
    });

    CacheKey::from_bytes(out)
}

/// [`cell_key_from_fingerprint`] with the suite digested on the spot.
#[must_use]
pub fn cell_key(
    suite: &Suite,
    machine: &MachineConfig,
    options: &PipelineOptions,
    solution: Solution,
    heuristic: Heuristic,
) -> CacheKey {
    cell_key_from_fingerprint(
        &digest_fingerprint(&suite_digest(suite)),
        machine,
        options,
        solution,
        heuristic,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn base_key() -> CacheKey {
        let suite = distvliw_mediabench::suite("gsmdec").unwrap();
        cell_key(
            &suite,
            &MachineConfig::paper_baseline(),
            &PipelineOptions::default(),
            Solution::Mdc,
            Heuristic::PrefClus,
        )
    }

    #[test]
    fn identical_inputs_produce_identical_keys() {
        let a = base_key();
        let b = base_key();
        assert_eq!(a, b);
        assert_eq!(a.hash64(), b.hash64());
    }

    #[test]
    fn every_field_perturbation_changes_the_key() {
        let suite = distvliw_mediabench::suite("gsmdec").unwrap();
        let machine = MachineConfig::paper_baseline();
        let options = PipelineOptions::default();
        let base = base_key();

        // Different suite.
        let other = distvliw_mediabench::suite("jpegenc").unwrap();
        assert_ne!(
            cell_key(
                &other,
                &machine,
                &options,
                Solution::Mdc,
                Heuristic::PrefClus
            ),
            base
        );

        // Suite content (not just name) matters.
        let mut renamed = suite.clone();
        renamed.kernels[0].trip_count += 1;
        assert_ne!(
            cell_key(
                &renamed,
                &machine,
                &options,
                Solution::Mdc,
                Heuristic::PrefClus
            ),
            base
        );

        // Graph/stream *content* matters even when every size is
        // unchanged: perturb one execution stream's stride in place.
        let mut restrided = suite.clone();
        let site = restrided.kernels[0]
            .exec
            .iter()
            .map(|(m, s)| (m, s.clone()))
            .next()
            .expect("kernels have memory sites");
        let stream = match site.1 {
            distvliw_ir::AddressStream::Affine { base, stride } => {
                distvliw_ir::AddressStream::Affine {
                    base,
                    stride: stride + 4,
                }
            }
            distvliw_ir::AddressStream::Indexed(addrs) => {
                let mut addrs: Vec<u64> = addrs.to_vec();
                addrs[0] = addrs[0].wrapping_add(4);
                distvliw_ir::AddressStream::Indexed(addrs.into())
            }
        };
        restrided.kernels[0].exec.insert(site.0, stream);
        assert_eq!(
            restrided.kernels[0].ddg.node_ids().count(),
            suite.kernels[0].ddg.node_ids().count(),
            "perturbation must keep sizes identical"
        );
        assert_ne!(
            cell_key(
                &restrided,
                &machine,
                &options,
                Solution::Mdc,
                Heuristic::PrefClus
            ),
            base,
            "stream content must be part of the key"
        );

        // The precomputed-fingerprint path agrees with the direct path.
        assert_eq!(
            cell_key_from_fingerprint(
                &digest_fingerprint(&suite_digest(&suite)),
                &machine,
                &options,
                Solution::Mdc,
                Heuristic::PrefClus
            ),
            base
        );

        // Machine.
        let m2 = machine.clone().with_interleave(2);
        assert_ne!(
            cell_key(&suite, &m2, &options, Solution::Mdc, Heuristic::PrefClus),
            base
        );

        // Options.
        let o = PipelineOptions {
            relax_latencies: false,
            ..options
        };
        assert_ne!(
            cell_key(&suite, &machine, &o, Solution::Mdc, Heuristic::PrefClus),
            base
        );

        // Solution and heuristic.
        assert_ne!(
            cell_key(
                &suite,
                &machine,
                &options,
                Solution::Ddgt,
                Heuristic::PrefClus
            ),
            base
        );
        assert_ne!(
            cell_key(
                &suite,
                &machine,
                &options,
                Solution::Mdc,
                Heuristic::MinComs
            ),
            base
        );
    }

    #[test]
    fn fingerprint_lanes_are_pinned() {
        // Persisted cell keys embed this value: the bytes must not move.
        assert_eq!(
            digest_fingerprint(b"distvliw suite fingerprint"),
            [
                0x3f, 0x74, 0xe5, 0x25, 0xfe, 0x93, 0xff, 0x59, 0xee, 0xa6, 0x6d, 0xef, 0xd2, 0x95,
                0x03, 0x57
            ]
        );
        let mut first = [0u8; 8];
        first.copy_from_slice(&digest_fingerprint(b"foobar")[..8]);
        assert_eq!(u64::from_le_bytes(first), fnv1a64(b"foobar"));
    }

    #[test]
    fn bundled_suite_fingerprints_are_pinned() {
        // Every resident suite's content, including the memory edges the
        // alias oracle discovers: a moved fingerprint means a moved DDG.
        let pinned = [
            ("epicdec", "dcd8a1b7ea3883a6c5d8cbb0579cfb5a"),
            ("epicenc", "f0039acafe3b6a606121a02e43c1f0da"),
            ("g721dec", "046c35ee0d970984ef175cabe5d04579"),
            ("g721enc", "fc45a781252886d287e7a0ebf70bbe13"),
            ("gsmdec", "77fabe2f2ed37a42e2a5ef5166b247a8"),
            ("gsmenc", "7f4af82c6b6728dfbe53badbf3a52f24"),
            ("jpegdec", "40795334a53b226f41b2138d6b5dfefe"),
            ("jpegenc", "c701e15ee63e73cfee1d0c1dcef8d17b"),
            ("mpeg2dec", "d43c6beafc08aefcd5a2fa1eaf4ba270"),
            ("pegwitdec", "b0c27d8f5a7a7faa8179f1a47a896a4b"),
            ("pegwitenc", "175de7c8dc9a12868c19ea2017409a94"),
            ("pgpdec", "0248e626a5840c6bab3b1d7890b16699"),
            ("pgpenc", "201ec3041fec04e3b5a9922de2867015"),
            ("rasta", "720b7cbcbaf4e79945af215db71c2e0a"),
            ("fir8", "78752758934eaac0471aaf40b0c09dfd"),
            ("ptrchase", "657a1423854a5d76dce6d8d58b2f6ce2"),
        ];
        let suites: Vec<Suite> = distvliw_mediabench::suites()
            .into_iter()
            .chain(distvliw_mediabench::trace_suites())
            .collect();
        let got: Vec<(String, String)> = suites
            .iter()
            .map(|s| {
                let hex = digest_fingerprint(&suite_digest(s))
                    .iter()
                    .map(|b| format!("{b:02x}"))
                    .collect();
                (s.name.clone(), hex)
            })
            .collect();
        let want: Vec<(String, String)> = pinned
            .iter()
            .map(|(n, h)| ((*n).to_string(), (*h).to_string()))
            .collect();
        assert_eq!(got, want);
    }

    #[test]
    fn fnv_matches_reference_vectors() {
        // Published FNV-1a test vectors.
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a64(b"foobar"), 0x8594_4171_f739_67e8);
    }
}
