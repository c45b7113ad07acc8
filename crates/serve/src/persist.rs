//! Crash-safe on-disk persistence for the serving layer's warm state.
//!
//! One store survives restarts: the content-addressed cell cache
//! ([`distvliw_core::cache::ResultCache`], keyed by
//! [`distvliw_core::cachekey::cell_key`] bytes). Schedules do not
//! persist: a schedule is a pure compile-time function of the loop,
//! the coherence solution and the machine, and a cell already holds
//! every result its schedules and simulations produced, so the
//! pipeline's memo of both ([`distvliw_core::PipelineMemo`]) lives in
//! memory for one engine.
//! The cell log uses this log-structured format (see
//! `docs/persistence.md` for the spec):
//!
//! ```text
//! header:  magic "DVLS" · kind (4 bytes) · format version (u32 LE)
//!          · era length (u32 LE) · era bytes
//! record:  key length (u32 LE) · value length (u32 LE) · key · value
//!          · checksum (u64 LE, FNV-1a over the four preceding fields)
//! ```
//!
//! The format is append-friendly: a new entry (or a fresh value for an
//! existing key) is one appended record, and replaying records in file
//! order with last-wins semantics reconstructs the store. In the cell
//! log a record with an empty value is a [`TOMBSTONE`]: replay drops
//! its key ([`replay_cells`]). Loading validates every frame and
//! **truncates at the first torn or corrupt record instead of failing
//! the boot**: everything before the bad frame is recovered, everything
//! from it on is reported as discarded.
//! A header whose era fingerprint does not match the running binary's
//! [`era_bytes`] marks the whole store stale — its records are counted
//! and discarded, never trusted (a `canonical_bytes` encoding change
//! silently changes every key, so stale entries could alias fresh
//! ones).
//!
//! The cell log is log-structured on eviction ([`CellLog`]): an insert
//! that evicts appends a tombstone for the victim, then the new record.
//! Compaction atomically rewrites the live entries — write a temp file,
//! fsync, rename over the log — when an insert's appends would take the
//! records appended since the last rewrite past the cache capacity, and
//! on shutdown flush. The log so holds at most twice the capacity in
//! records, and an insert costs amortized O(1) record writes. A crash
//! at any point leaves either the old log or the complete new one.

use std::fs::{self, File, OpenOptions};
use std::io::{self, Read, Write};
use std::path::{Path, PathBuf};

use distvliw_core::cachekey::{fnv1a64, CacheKey, CELL_KEY_VERSION};
use distvliw_core::{KernelRun, SchedStats, SchedTotals, SuiteStats};
use distvliw_sim::{ClusterUsage, SimStats};

use distvliw_core::cache::ResultCache;

/// Magic prefix of every store file ("DistVliw Log Store").
pub const MAGIC: [u8; 4] = *b"DVLS";

/// On-disk format version of the header/record framing itself; bump
/// when the framing (not the payload) changes.
pub const FORMAT_VERSION: u32 = 1;

/// Version of the [`SuiteStats`] value codec below; folded into
/// [`era_bytes`] so a codec change invalidates persisted cell values.
pub const VALUE_CODEC_VERSION: u8 = 1;

/// Store kind tag for the result-cache log.
pub const KIND_CELLS: [u8; 4] = *b"CELL";

/// The era fingerprint of the running binary: every format version the
/// persisted bytes transitively depend on. A mismatch in **any**
/// component — the machine encoding behind every key
/// ([`distvliw_arch::CANONICAL_BYTES_VERSION`]), the cell-key layout
/// and the values keys compute ([`CELL_KEY_VERSION`]) or the value
/// codec — marks a persisted store stale, and stale stores are
/// discarded wholesale rather than trusted.
///
/// The scheduler-projection version
/// ([`distvliw_arch::SCHED_CANONICAL_BYTES_VERSION`]) stays in the era
/// although no persisted key embeds it: dropping it would change these
/// bytes, so a state dir an earlier binary wrote would be discarded
/// instead of booting warm.
#[must_use]
pub fn era_bytes() -> [u8; 4] {
    [
        distvliw_arch::CANONICAL_BYTES_VERSION,
        distvliw_arch::SCHED_CANONICAL_BYTES_VERSION,
        CELL_KEY_VERSION,
        VALUE_CODEC_VERSION,
    ]
}

/// One recovered `(key bytes, value bytes)` pair.
pub type Record = (Vec<u8>, Vec<u8>);

/// What a load pass recovered and what it refused to trust.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LoadReport {
    /// Checksum-valid records recovered, in file order (before
    /// last-wins dedup by the consumer).
    pub recovered: u64,
    /// Well-formed records discarded because the store's era is stale.
    pub discarded_records: u64,
    /// Bytes dropped: everything from the first torn or corrupt frame
    /// on (0 for a clean log), or the whole file for a stale store.
    pub discarded_bytes: u64,
    /// Whether the whole store was rejected (bad magic/version or a
    /// stale era fingerprint).
    pub stale: bool,
}

/// Encodes the store header for `kind` under era `era`.
#[must_use]
pub fn encode_header(kind: [u8; 4], era: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(16 + era.len());
    out.extend_from_slice(&MAGIC);
    out.extend_from_slice(&kind);
    out.extend_from_slice(&FORMAT_VERSION.to_le_bytes());
    out.extend_from_slice(&(era.len() as u32).to_le_bytes());
    out.extend_from_slice(era);
    out
}

/// Encodes one length-prefixed, checksummed record.
///
/// # Panics
///
/// Panics if `key` or `value` exceeds `u32::MAX` bytes (no real key or
/// encoded cell comes near this).
#[must_use]
pub fn encode_record(key: &[u8], value: &[u8]) -> Vec<u8> {
    let key_len = u32::try_from(key.len()).expect("key fits u32");
    let val_len = u32::try_from(value.len()).expect("value fits u32");
    let mut out = Vec::with_capacity(16 + key.len() + value.len());
    out.extend_from_slice(&key_len.to_le_bytes());
    out.extend_from_slice(&val_len.to_le_bytes());
    out.extend_from_slice(key);
    out.extend_from_slice(value);
    let checksum = fnv1a64(&out);
    out.extend_from_slice(&checksum.to_le_bytes());
    out
}

/// Parses one frame at `bytes[offset..]`. Returns the record and the
/// offset past it, or `None` if the frame is torn, overlong or fails
/// its checksum.
fn parse_record(bytes: &[u8], offset: usize) -> Option<(Record, usize)> {
    let rest = bytes.get(offset..)?;
    if rest.len() < 8 {
        return None;
    }
    let key_len = u32::from_le_bytes(rest[0..4].try_into().ok()?) as usize;
    let val_len = u32::from_le_bytes(rest[4..8].try_into().ok()?) as usize;
    // Bound before allocating: a corrupt length must not balloon memory.
    let body_len = 8usize
        .checked_add(key_len)?
        .checked_add(val_len)?
        .checked_add(8)?;
    if rest.len() < body_len {
        return None;
    }
    let frame = &rest[..body_len - 8];
    let want = u64::from_le_bytes(rest[body_len - 8..body_len].try_into().ok()?);
    if fnv1a64(frame) != want {
        return None;
    }
    let key = frame[8..8 + key_len].to_vec();
    let value = frame[8 + key_len..].to_vec();
    Some(((key, value), offset + body_len))
}

/// Decodes a whole store image: header validation, then record frames
/// until the first torn/corrupt one. Never panics and never returns a
/// record whose checksum did not validate; see [`LoadReport`] for what
/// was kept.
#[must_use]
pub fn decode_store(bytes: &[u8], kind: [u8; 4], era: &[u8]) -> (Vec<Record>, LoadReport) {
    let mut report = LoadReport::default();
    let header = encode_header(kind, era);
    let fresh = |report: &mut LoadReport| {
        report.stale = true;
        report.discarded_bytes = bytes.len() as u64;
    };
    // Era (or kind/version/magic) mismatch: parse the frames under the
    // *old* header's framing so the report can count what was thrown
    // away, but recover nothing.
    if bytes.len() < 16 || bytes[0..4] != MAGIC || bytes[4..8] != kind {
        if !bytes.is_empty() {
            fresh(&mut report);
        }
        return (Vec::new(), report);
    }
    let version = u32::from_le_bytes(bytes[8..12].try_into().expect("sliced 4 bytes"));
    let era_len = u32::from_le_bytes(bytes[12..16].try_into().expect("sliced 4 bytes")) as usize;
    let Some(stored_era) = bytes.get(16..16 + era_len) else {
        fresh(&mut report);
        return (Vec::new(), report);
    };
    let body_start = 16 + era_len;
    if version != FORMAT_VERSION || stored_era != era {
        // Stale store: count its (still well-formed) records for the
        // report, but the *whole* file is discarded — none of it can be
        // trusted under the running binary's encodings.
        report.stale = true;
        let mut offset = body_start;
        while let Some((_, next)) = parse_record(bytes, offset) {
            report.discarded_records += 1;
            offset = next;
        }
        report.discarded_bytes = bytes.len() as u64;
        return (Vec::new(), report);
    }
    debug_assert_eq!(&bytes[..body_start], &header[..]);

    let mut records = Vec::new();
    let mut offset = body_start;
    while let Some((record, next)) = parse_record(bytes, offset) {
        records.push(record);
        offset = next;
    }
    report.recovered = records.len() as u64;
    report.discarded_bytes = (bytes.len() - offset) as u64;
    (records, report)
}

/// An open store log: loads on open, appends records as they are
/// produced, and atomically compacts to the live entry set on demand.
#[derive(Debug)]
pub struct LogWriter {
    path: PathBuf,
    file: File,
    kind: [u8; 4],
    era: Vec<u8>,
}

impl LogWriter {
    /// Opens (or creates) the log at `path`, returning the recovered
    /// records in file order and the load report. A stale or corrupt
    /// tail is healed immediately: the file is atomically rewritten to
    /// exactly the recovered prefix, so the damage is not re-reported
    /// on every boot.
    ///
    /// # Errors
    ///
    /// Propagates I/O failures (not corruption, which is recovered).
    pub fn open(
        path: PathBuf,
        kind: [u8; 4],
        era: &[u8],
    ) -> io::Result<(LogWriter, Vec<Record>, LoadReport)> {
        let existing = match File::open(&path) {
            Ok(mut f) => {
                let mut bytes = Vec::new();
                f.read_to_end(&mut bytes)?;
                Some(bytes)
            }
            Err(e) if e.kind() == io::ErrorKind::NotFound => None,
            Err(e) => return Err(e),
        };
        let (records, report) = match &existing {
            Some(bytes) => decode_store(bytes, kind, era),
            None => (Vec::new(), LoadReport::default()),
        };
        // Heal: a fresh file gets a header; a damaged or stale one is
        // truncated to its recovered prefix via an atomic rewrite.
        let dirty = report.stale || report.discarded_bytes > 0 || existing.is_none();
        if dirty {
            write_atomic(
                &path,
                kind,
                era,
                records.iter().map(|(k, v)| (k.as_slice(), v.clone())),
            )?;
        }
        let file = OpenOptions::new().append(true).open(&path)?;
        let writer = LogWriter {
            path,
            file,
            kind,
            era: era.to_vec(),
        };
        Ok((writer, records, report))
    }

    /// Appends one record and pushes it to the OS, so the entry
    /// survives a SIGKILL of this process (durability against power
    /// loss comes from the fsync at the next compaction or shutdown
    /// flush).
    ///
    /// # Errors
    ///
    /// Propagates write failures.
    pub fn append(&mut self, key: &[u8], value: &[u8]) -> io::Result<()> {
        // One write_all per record: a crash can tear the last frame
        // (healed at load) but never interleave two.
        self.file.write_all(&encode_record(key, value))
    }

    /// Atomically replaces the log with exactly `entries`, in iterator
    /// order: write a temp file, fsync it, rename over the log. The
    /// iterator order is what a reload replays, so callers pass live
    /// entries in least-recently-used-first order to preserve recency
    /// across restarts.
    ///
    /// # Errors
    ///
    /// Propagates I/O failures; the previous log survives any failure
    /// before the rename.
    pub fn rewrite<'a, I>(&mut self, entries: I) -> io::Result<()>
    where
        I: Iterator<Item = (&'a [u8], Vec<u8>)>,
    {
        write_atomic(&self.path, self.kind, &self.era, entries)?;
        // The old handle points at the unlinked file; reopen on the new.
        self.file = OpenOptions::new().append(true).open(&self.path)?;
        Ok(())
    }

    /// Fsyncs the log (shutdown/periodic flush).
    ///
    /// # Errors
    ///
    /// Propagates the sync failure.
    pub fn sync(&self) -> io::Result<()> {
        self.file.sync_all()
    }

    /// The log's path (for operator-facing reporting).
    #[must_use]
    pub fn path(&self) -> &Path {
        &self.path
    }
}

/// The value of a cell-log record that drops its key on replay. No cell
/// value encodes to zero bytes: [`suite_stats_bytes`] always writes at
/// least the suite name's length.
pub const TOMBSTONE: &[u8] = &[];

/// Replays cell-log records in file order into `cache`: a [`TOMBSTONE`]
/// removes its key, any other record is decoded and preloaded (last
/// wins; file order is recency order). Returns how many records failed
/// to decode; they are skipped.
pub fn replay_cells<V: Clone>(
    records: Vec<Record>,
    cache: &mut ResultCache<V>,
    decode: impl Fn(&[u8]) -> Option<V>,
) -> u64 {
    let mut undecodable = 0;
    for (key, value) in records {
        let key = CacheKey::from_bytes(key);
        if value == TOMBSTONE {
            cache.remove(&key);
        } else if let Some(value) = decode(&value) {
            cache.preload(key, value);
        } else {
            undecodable += 1;
        }
    }
    undecodable
}

/// What one [`CellLog::record_insert`] wrote.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CellWrite {
    /// This many records were appended (0 when the value is not
    /// persisted and nothing was evicted).
    Appended(u64),
    /// The log was rewritten to the cache's live set.
    Rewrote,
}

/// The cell log of a [`ResultCache`], log-structured on eviction.
///
/// An insert appends the new value's record; an insert that evicts
/// first appends a [`TOMBSTONE`] for the victim. When the records
/// appended since the last rewrite would exceed the cache capacity, the
/// insert rewrites the log to the live set instead
/// ([`LogWriter::rewrite`]: temp file, fsync, rename). A rewrite holds
/// at most `capacity` records, so the log never holds more than
/// `2 × capacity`, and every record-boundary prefix of it replays
/// ([`replay_cells`]) to a subset of the live set at that point.
#[derive(Debug)]
pub struct CellLog<V> {
    log: LogWriter,
    /// Records appended since the last rewrite. At open it is the
    /// replayed log's dead records, so kill/restart cycles cannot grow
    /// the log without bound.
    appended: usize,
    /// A resident value's record bytes, or `None` for a value that is
    /// never persisted.
    encode: fn(&V) -> Option<Vec<u8>>,
}

impl<V: Clone> CellLog<V> {
    /// Opens (or creates) the cell log at `path` ([`LogWriter::open`])
    /// and replays it into `cache` ([`replay_cells`]). Returns the log,
    /// the load report and the count of records that failed to decode.
    ///
    /// # Errors
    ///
    /// Propagates I/O failures (not corruption, which is recovered).
    pub fn open(
        path: PathBuf,
        era: &[u8],
        cache: &mut ResultCache<V>,
        decode: impl Fn(&[u8]) -> Option<V>,
        encode: fn(&V) -> Option<Vec<u8>>,
    ) -> io::Result<(CellLog<V>, LoadReport, u64)> {
        let (log, records, report) = LogWriter::open(path, KIND_CELLS, era)?;
        let total = records.len();
        let undecodable = replay_cells(records, cache, decode);
        let cell_log = CellLog {
            log,
            appended: total.saturating_sub(cache.len()),
            encode,
        };
        Ok((cell_log, report, undecodable))
    }

    /// Mirrors one [`ResultCache::insert`] of `key` → `value` that
    /// evicted `evicted`; `cache` is the cache after the insert. Appends
    /// a tombstone for the victim, then the value's record, or rewrites
    /// the log when the appends would exceed the cache capacity.
    ///
    /// # Errors
    ///
    /// Propagates write failures.
    ///
    /// # Panics
    ///
    /// Panics if `value` encodes to a tombstone.
    pub fn record_insert(
        &mut self,
        cache: &ResultCache<V>,
        key: &CacheKey,
        value: &V,
        evicted: Option<&CacheKey>,
    ) -> io::Result<CellWrite> {
        let value = (self.encode)(value);
        assert!(
            value.as_deref() != Some(TOMBSTONE),
            "a cell value must not encode as a tombstone"
        );
        let records: Vec<(&[u8], &[u8])> = evicted
            .map(|victim| (victim.bytes(), TOMBSTONE))
            .into_iter()
            .chain(value.as_deref().map(|v| (key.bytes(), v)))
            .collect();
        if self.appended + records.len() > cache.capacity() {
            self.rewrite(cache)?;
            return Ok(CellWrite::Rewrote);
        }
        self.appended += records.len();
        for (key, value) in &records {
            self.log.append(key, value)?;
        }
        Ok(CellWrite::Appended(records.len() as u64))
    }

    /// Atomically rewrites the log to the cache's persisted live
    /// entries, least recently used first, so a reload replays recency.
    ///
    /// # Errors
    ///
    /// Propagates I/O failures; the previous log survives any failure
    /// before the rename.
    pub fn rewrite(&mut self, cache: &ResultCache<V>) -> io::Result<()> {
        let live = cache.entries_by_recency();
        self.log.rewrite(
            live.iter()
                .filter_map(|(key, value)| Some((key.bytes(), (self.encode)(value)?))),
        )?;
        self.appended = 0;
        Ok(())
    }

    /// Fsyncs the log.
    ///
    /// # Errors
    ///
    /// Propagates the sync failure.
    pub fn sync(&self) -> io::Result<()> {
        self.log.sync()
    }
}

/// Writes `header + entries` to a temp file, fsyncs it, and renames it
/// over `path` — the atomic-replace primitive behind healing and
/// compaction.
fn write_atomic<'a, I>(path: &Path, kind: [u8; 4], era: &[u8], entries: I) -> io::Result<()>
where
    I: Iterator<Item = (&'a [u8], Vec<u8>)>,
{
    let tmp = path.with_extension("tmp");
    {
        let mut out = io::BufWriter::new(File::create(&tmp)?);
        out.write_all(&encode_header(kind, era))?;
        for (key, value) in entries {
            out.write_all(&encode_record(key, &value))?;
        }
        let file = out.into_inner().map_err(io::IntoInnerError::into_error)?;
        file.sync_all()?;
    }
    fs::rename(&tmp, path)?;
    Ok(())
}

// ---------------------------------------------------------------------
// SuiteStats value codec
// ---------------------------------------------------------------------

fn push_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn push_str(out: &mut Vec<u8>, s: &str) {
    push_u64(out, s.len() as u64);
    out.extend_from_slice(s.as_bytes());
}

fn push_sim_stats(out: &mut Vec<u8>, s: &SimStats) {
    push_u64(out, s.compute_cycles);
    push_u64(out, s.stall_cycles);
    for c in s.accesses.as_array() {
        push_u64(out, c);
    }
    push_u64(out, s.coherence_violations);
    push_u64(out, s.comm_ops);
    push_u64(out, s.iterations);
    push_u64(out, s.bus_busy_cycles);
    push_u64(out, s.bus_drain_cycles);
}

fn push_cluster(out: &mut Vec<u8>, c: &ClusterUsage) {
    push_u64(out, c.accesses.len() as u64);
    for a in &c.accesses {
        for v in a.as_array() {
            push_u64(out, v);
        }
    }
    let violations = c.violations.as_slice();
    push_u64(out, violations.len() as u64);
    for &v in violations {
        push_u64(out, v);
    }
    push_u64(out, c.mem_bus_grants);
    push_u64(out, c.next_level_grants);
}

fn push_sched_stats(out: &mut Vec<u8>, s: &SchedStats) {
    push_u64(out, u64::from(s.ii));
    push_u64(out, u64::from(s.mii));
    push_u64(out, u64::from(s.iis_tried));
    push_u64(out, s.placement_attempts);
    push_u64(out, s.ejections);
    match s.seeded_at {
        None => out.push(0),
        Some(ii) => {
            out.push(1);
            push_u64(out, u64::from(ii));
        }
    }
    push_u64(out, u64::from(s.max_reg_pressure));
}

/// Encodes a [`SuiteStats`] losslessly (all counters are integers; the
/// served ratios are derived at render time, so a decoded value renders
/// byte-identical JSON).
#[must_use]
pub fn suite_stats_bytes(stats: &SuiteStats) -> Vec<u8> {
    let mut out = Vec::with_capacity(256 + stats.kernels.len() * 256);
    push_str(&mut out, &stats.name);
    push_u64(&mut out, stats.kernels.len() as u64);
    for k in &stats.kernels {
        push_str(&mut out, &k.name);
        push_u64(&mut out, u64::from(k.ii));
        push_u64(&mut out, u64::from(k.span));
        push_u64(&mut out, k.static_comm_ops as u64);
        push_sched_stats(&mut out, &k.sched);
        push_sim_stats(&mut out, &k.stats);
        push_cluster(&mut out, &k.cluster);
    }
    push_sim_stats(&mut out, &stats.total);
    push_cluster(&mut out, &stats.cluster);
    push_u64(&mut out, stats.sched.placement_attempts);
    push_u64(&mut out, stats.sched.ejections);
    push_u64(&mut out, stats.sched.iis_tried);
    push_u64(&mut out, stats.sched.seeded_kernels);
    push_u64(&mut out, u64::from(stats.sched.max_reg_pressure));
    out
}

/// Bounds-checked cursor over an encoded value; every read is fallible
/// so a corrupt (checksum-colliding) or truncated payload yields `None`
/// instead of a panic.
struct Cursor<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn u64(&mut self) -> Option<u64> {
        let chunk = self.bytes.get(self.pos..self.pos + 8)?;
        self.pos += 8;
        Some(u64::from_le_bytes(chunk.try_into().ok()?))
    }

    fn u32_checked(&mut self) -> Option<u32> {
        u32::try_from(self.u64()?).ok()
    }

    fn usize_checked(&mut self) -> Option<usize> {
        usize::try_from(self.u64()?).ok()
    }

    /// A length that must be payable in at least `unit` remaining bytes
    /// per element — rejects corrupt lengths before any allocation.
    fn len_checked(&mut self, unit: usize) -> Option<usize> {
        let len = self.usize_checked()?;
        let remaining = self.bytes.len().saturating_sub(self.pos);
        (len.checked_mul(unit)? <= remaining).then_some(len)
    }

    fn str(&mut self) -> Option<String> {
        let len = self.len_checked(1)?;
        let chunk = self.bytes.get(self.pos..self.pos + len)?;
        self.pos += len;
        String::from_utf8(chunk.to_vec()).ok()
    }

    fn byte(&mut self) -> Option<u8> {
        let b = *self.bytes.get(self.pos)?;
        self.pos += 1;
        Some(b)
    }

    fn sim_stats(&mut self) -> Option<SimStats> {
        let compute_cycles = self.u64()?;
        let stall_cycles = self.u64()?;
        let mut counts = [0u64; 5];
        for c in &mut counts {
            *c = self.u64()?;
        }
        Some(SimStats {
            compute_cycles,
            stall_cycles,
            accesses: distvliw_sim::AccessCounts::from_array(counts),
            coherence_violations: self.u64()?,
            comm_ops: self.u64()?,
            iterations: self.u64()?,
            bus_busy_cycles: self.u64()?,
            bus_drain_cycles: self.u64()?,
        })
    }

    fn cluster(&mut self) -> Option<ClusterUsage> {
        let n = self.len_checked(40)?;
        let mut accesses = Vec::with_capacity(n);
        for _ in 0..n {
            let mut counts = [0u64; 5];
            for c in &mut counts {
                *c = self.u64()?;
            }
            accesses.push(distvliw_sim::AccessCounts::from_array(counts));
        }
        let nv = self.len_checked(8)?;
        let mut violations = distvliw_sim::ClusterCounts::new(nv);
        for cluster in 0..nv {
            violations.add(cluster, self.u64()?);
        }
        Some(ClusterUsage {
            accesses,
            violations,
            mem_bus_grants: self.u64()?,
            next_level_grants: self.u64()?,
        })
    }

    fn sched_stats(&mut self) -> Option<SchedStats> {
        let ii = self.u32_checked()?;
        let mii = self.u32_checked()?;
        let iis_tried = self.u32_checked()?;
        let placement_attempts = self.u64()?;
        let ejections = self.u64()?;
        let seeded_at = match self.byte()? {
            0 => None,
            1 => Some(self.u32_checked()?),
            _ => return None,
        };
        Some(SchedStats {
            ii,
            mii,
            iis_tried,
            placement_attempts,
            ejections,
            seeded_at,
            max_reg_pressure: self.u32_checked()?,
        })
    }
}

/// Decodes [`suite_stats_bytes`] output. Returns `None` (never panics)
/// on any malformed payload; the caller counts that as a discarded
/// record.
#[must_use]
pub fn suite_stats_from_bytes(bytes: &[u8]) -> Option<SuiteStats> {
    let mut cur = Cursor { bytes, pos: 0 };
    let name = cur.str()?;
    let n_kernels = cur.len_checked(64)?;
    let mut kernels = Vec::with_capacity(n_kernels);
    for _ in 0..n_kernels {
        let name = cur.str()?;
        let ii = cur.u32_checked()?;
        let span = cur.u32_checked()?;
        let static_comm_ops = cur.usize_checked()?;
        let sched = cur.sched_stats()?;
        let stats = cur.sim_stats()?;
        let cluster = cur.cluster()?;
        kernels.push(KernelRun {
            name,
            ii,
            span,
            static_comm_ops,
            sched,
            stats,
            cluster,
        });
    }
    let total = cur.sim_stats()?;
    let cluster = cur.cluster()?;
    let sched = SchedTotals {
        placement_attempts: cur.u64()?,
        ejections: cur.u64()?,
        iis_tried: cur.u64()?,
        seeded_kernels: cur.u64()?,
        max_reg_pressure: cur.u32_checked()?,
    };
    // Trailing garbage means this is not a value we wrote.
    (cur.pos == bytes.len()).then_some(SuiteStats {
        name,
        kernels,
        total,
        cluster,
        sched,
    })
}
