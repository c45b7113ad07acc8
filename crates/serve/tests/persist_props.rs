//! Property tests of the persistence layer's recovery and round-trip
//! guarantees.
//!
//! Corruption properties: for *any* truncation point, *any* single bit
//! flip, and stale-era or duplicate records, loading a store must never
//! panic, must never surface a value that was not written, and must
//! report exactly what it recovered versus discarded. (FNV-1a's
//! per-byte xor-then-multiply steps are bijective on the 64-bit state,
//! so a single bit flip anywhere in a hashed frame always changes the
//! checksum — detection is certain, not probabilistic.)
//!
//! Round-trip property: an arbitrary insert/get/evict/compact sequence
//! driven through an append-on-insert / compact-on-eviction protocol,
//! then decoded and replayed into a fresh cache, restores exactly the
//! live key→value map — the LRU-survivor set — of an independently
//! maintained model.
//!
//! Tombstone property: the same kind of sequence, plus failed cells and
//! SIGKILL-style restarts, driven through the engine's own cell log
//! ([`CellLog`]) and replay ([`replay_cells`]): the on-disk log always
//! replays to the model's live map, stays within twice the capacity,
//! and every record-boundary prefix of it replays to at most
//! `capacity` entries, each with its correct value.

use std::collections::HashMap;
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};

use distvliw_core::cache::ResultCache;
use distvliw_core::cachekey::CacheKey;
use distvliw_serve::persist::{
    decode_store, encode_header, encode_record, era_bytes, replay_cells, CellLog, Record,
    KIND_CELLS,
};
use proptest::collection::vec as pvec;
use proptest::prelude::*;

/// Arbitrary small records: keys collide often (exercising last-wins),
/// values vary in length (exercising framing).
fn arb_records() -> impl Strategy<Value = Vec<(Vec<u8>, Vec<u8>)>> {
    pvec((pvec(any::<u8>(), 0..6), pvec(any::<u8>(), 0..20)), 0..12)
}

/// A store image holding `records` under the current era.
fn store_bytes(records: &[(Vec<u8>, Vec<u8>)], era: &[u8]) -> Vec<u8> {
    let mut bytes = encode_header(KIND_CELLS, era);
    for (k, v) in records {
        bytes.extend_from_slice(&encode_record(k, v));
    }
    bytes
}

/// A cell value in miniature: `None` is a failed cell, which evicts
/// like any insert but is never persisted.
type Cell = Option<Vec<u8>>;

fn encode_cell(value: &Cell) -> Option<Vec<u8>> {
    value.clone()
}

fn decode_cell(bytes: &[u8]) -> Option<Cell> {
    Some(Some(bytes.to_vec()))
}

/// Cells are content-addressed: a key has exactly one correct value.
fn cell_value(key: u8) -> Vec<u8> {
    vec![key, key ^ 0x5a, 3]
}

/// Replays `records` into a cache with room for all of them, so the
/// result shows what the log itself implies (a capacity-bounded replay
/// would hide an overflow by evicting).
fn replay_unbounded(records: &[Record]) -> ResultCache<Cell> {
    let mut cache = ResultCache::new(records.len().max(1));
    assert_eq!(replay_cells(records.to_vec(), &mut cache, decode_cell), 0);
    cache
}

/// The persisted (`Ok`) entries of `cache`.
fn live_map(cache: &ResultCache<Cell>) -> HashMap<Vec<u8>, Vec<u8>> {
    cache
        .entries_by_recency()
        .into_iter()
        .filter_map(|(key, value)| Some((key.bytes().to_vec(), value?)))
        .collect()
}

/// A fresh cell-log path per property case, removed on drop.
struct TempLog(PathBuf);

impl TempLog {
    fn new() -> TempLog {
        static CASE: AtomicUsize = AtomicUsize::new(0);
        let dir = std::env::temp_dir().join(format!(
            "distvliw-persist-props-{}-{}",
            std::process::id(),
            CASE.fetch_add(1, Ordering::Relaxed)
        ));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("create temp dir");
        TempLog(dir)
    }

    fn path(&self) -> PathBuf {
        self.0.join("cells.log")
    }

    fn records(&self) -> Vec<Record> {
        let bytes = std::fs::read(self.path()).expect("read cell log");
        let (records, report) = decode_store(&bytes, KIND_CELLS, &era_bytes());
        assert!(!report.stale && report.discarded_bytes == 0);
        records
    }
}

impl Drop for TempLog {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn truncation_at_any_offset_recovers_a_clean_prefix(
        records in arb_records(),
        cut_seed in any::<u64>(),
    ) {
        let era = era_bytes();
        let full = store_bytes(&records, &era);
        let cut = (cut_seed as usize) % (full.len() + 1);
        let (recovered, report) = decode_store(&full[..cut], KIND_CELLS, &era);

        // Never a record that wasn't written, in order, values intact.
        prop_assert!(recovered.len() <= records.len());
        for (got, want) in recovered.iter().zip(&records) {
            prop_assert_eq!(got, want);
        }
        prop_assert_eq!(report.recovered, recovered.len() as u64);
        if cut == 0 {
            // An empty file is a fresh store, not a damaged one.
            prop_assert!(!report.stale);
            prop_assert_eq!(report.discarded_bytes, 0);
        } else if report.stale {
            // The cut landed inside the header: nothing is trusted.
            prop_assert!(cut < store_bytes(&[], &era).len());
            prop_assert_eq!(recovered.len(), 0);
        } else {
            // Recovered + discarded account for every byte of the cut
            // image: the recovered prefix re-encodes to exactly the
            // bytes before the torn tail.
            let prefix = store_bytes(&recovered, &era);
            prop_assert_eq!(report.discarded_bytes as usize, cut - prefix.len());
            prop_assert_eq!(&full[..prefix.len()], &prefix[..]);
        }
    }

    #[test]
    fn a_single_bit_flip_never_yields_a_wrong_value(
        records in arb_records(),
        flip_seed in any::<u64>(),
    ) {
        let era = era_bytes();
        let mut bytes = store_bytes(&records, &era);
        if bytes.is_empty() {
            return Ok(());
        }
        let bit = (flip_seed as usize) % (bytes.len() * 8);
        bytes[bit / 8] ^= 1 << (bit % 8);

        let (recovered, report) = decode_store(&bytes, KIND_CELLS, &era);
        if report.stale {
            // Header flip: the whole store is rejected.
            prop_assert_eq!(recovered.len(), 0);
            prop_assert_eq!(report.discarded_bytes, bytes.len() as u64);
        } else {
            // Record flip: the checksum catches it; everything before
            // the damaged frame is intact, nothing after survives —
            // and above all, no recovered value differs from what was
            // written.
            prop_assert!(recovered.len() < records.len().max(1));
            for (got, want) in recovered.iter().zip(&records) {
                prop_assert_eq!(got, want);
            }
            prop_assert!(report.discarded_bytes > 0);
        }
    }

    #[test]
    fn stale_era_stores_are_counted_and_discarded(records in arb_records()) {
        let era = era_bytes();
        let mut old_era = era;
        old_era[0] ^= 0x5a;
        let bytes = store_bytes(&records, &old_era);

        let (recovered, report) = decode_store(&bytes, KIND_CELLS, &era);
        prop_assert!(recovered.is_empty(), "stale records must never be trusted");
        prop_assert!(report.stale);
        prop_assert_eq!(report.discarded_records, records.len() as u64);
        prop_assert_eq!(report.discarded_bytes, bytes.len() as u64);
        prop_assert_eq!(report.recovered, 0);
    }

    #[test]
    fn duplicate_records_replay_last_wins(
        key in pvec(any::<u8>(), 1..4),
        values in pvec(pvec(any::<u8>(), 0..8), 1..6),
    ) {
        let era = era_bytes();
        let records: Vec<(Vec<u8>, Vec<u8>)> =
            values.iter().map(|v| (key.clone(), v.clone())).collect();
        let (recovered, report) = decode_store(&store_bytes(&records, &era), KIND_CELLS, &era);
        prop_assert_eq!(report.recovered, values.len() as u64);
        // File-order replay with last-wins lands on the final value.
        let mut map: HashMap<Vec<u8>, Vec<u8>> = HashMap::new();
        for (k, v) in recovered {
            map.insert(k, v);
        }
        prop_assert_eq!(map.len(), 1);
        prop_assert_eq!(&map[&key], values.last().unwrap());
    }

    #[test]
    fn insert_evict_compact_round_trips_against_a_model(
        capacity in 1usize..5,
        ops in pvec((any::<bool>(), any::<u8>(), any::<u8>()), 0..40),
    ) {
        let era = era_bytes();
        // Snapshot compaction, driven in miniature: a bounded LRU
        // cache whose log gets one appended record per non-evicting
        // insert and an atomic compact (LRU-first snapshot) whenever an
        // insert evicts.
        let mut cache: ResultCache<Vec<u8>> = ResultCache::new(capacity);
        let mut log = store_bytes(&[], &era);
        // Reference model: the live key→value map, maintained naively.
        let mut model: HashMap<Vec<u8>, Vec<u8>> = HashMap::new();

        for (is_get, key_byte, val_byte) in ops {
            let key_bytes = vec![key_byte % 8];
            let key = CacheKey::from_bytes(key_bytes.clone());
            if is_get {
                // Gets shuffle recency; recency drift between
                // compactions is invisible to the live-set guarantee.
                let cached = cache.get(&key);
                prop_assert_eq!(cached, model.get(&key_bytes).cloned());
                continue;
            }
            let value = vec![val_byte; 3];
            let evicted = cache.insert(key.clone(), value.clone());
            model.insert(key_bytes, value.clone());
            if let Some(victim) = evicted {
                prop_assert!(model.remove(victim.bytes()).is_some());
                // Compact: the log becomes an exact LRU-first snapshot.
                log = store_bytes(
                    &cache
                        .entries_by_recency()
                        .iter()
                        .map(|(k, v)| (k.bytes().to_vec(), v.clone()))
                        .collect::<Vec<_>>(),
                    &era,
                );
            } else {
                log.extend_from_slice(&encode_record(key.bytes(), &value));
            }
        }

        // Reload: decode, replay in file order into a fresh cache.
        let (records, report) = decode_store(&log, KIND_CELLS, &era);
        prop_assert!(!report.stale);
        prop_assert_eq!(report.discarded_bytes, 0);
        let mut restored: ResultCache<Vec<u8>> = ResultCache::new(capacity);
        for (k, v) in records {
            restored.preload(CacheKey::from_bytes(k), v);
        }

        // The restored cache holds exactly the model's live map: same
        // LRU-survivor key set, same values. (Replay can never
        // overflow capacity: the log is a snapshot of at most
        // `capacity` live entries plus appends that did not evict.)
        prop_assert_eq!(restored.len(), model.len());
        for (k, v) in &model {
            let got = restored.get(&CacheKey::from_bytes(k.clone()));
            prop_assert_eq!(got.as_ref(), Some(v));
        }
    }

    #[test]
    fn tombstone_log_replays_the_live_set(
        capacity in 1usize..5,
        ops in pvec((0u8..8, any::<u8>()), 0..48),
    ) {
        let tmp = TempLog::new();
        let open = |cache: &mut ResultCache<Cell>| {
            CellLog::open(tmp.path(), &era_bytes(), cache, decode_cell, encode_cell)
                .expect("open cell log")
                .0
        };
        let mut cache: ResultCache<Cell> = ResultCache::new(capacity);
        let mut log = open(&mut cache);
        // Reference model: the live map of persisted (`Ok`) cells.
        let mut model: HashMap<Vec<u8>, Vec<u8>> = HashMap::new();

        for (kind, key_byte) in ops {
            let key_byte = key_byte % 8;
            let key = CacheKey::from_bytes(vec![key_byte]);
            match kind {
                0..=2 => {
                    let cached = cache.get(&key).flatten();
                    prop_assert_eq!(cached, model.get(key.bytes()).cloned());
                }
                3..=6 => {
                    // The engine inserts a cell only after a miss, so a
                    // failed cell never replaces a resident one.
                    let value = (kind != 6).then(|| cell_value(key_byte));
                    if value.is_none() && cache.contains(&key) {
                        continue;
                    }
                    let evicted = cache.insert(key.clone(), value.clone());
                    if let Some(victim) = &evicted {
                        model.remove(victim.bytes());
                    }
                    if let Some(v) = &value {
                        model.insert(key.bytes().to_vec(), v.clone());
                    }
                    log.record_insert(&cache, &key, &value, evicted.as_ref())
                        .expect("write cell log");
                }
                _ => {
                    // SIGKILL and restart: reopen without compacting.
                    drop(log);
                    cache = ResultCache::new(capacity);
                    log = open(&mut cache);
                    prop_assert_eq!(live_map(&cache), model.clone());
                }
            }
            // After every step the log on disk replays to the live map
            // and stays within twice the capacity.
            let records = tmp.records();
            prop_assert!(records.len() <= 2 * capacity, "{} records", records.len());
            prop_assert_eq!(live_map(&replay_unbounded(&records)), model.clone());
        }

        // A crash can cut the log at any record boundary: every prefix
        // replays within capacity, and only to correct values.
        let records = tmp.records();
        for end in 0..=records.len() {
            let prefix = replay_unbounded(&records[..end]);
            prop_assert!(prefix.len() <= capacity);
            for (key, value) in prefix.entries_by_recency() {
                prop_assert_eq!(value, Some(cell_value(key.bytes()[0])));
            }
        }
    }
}
