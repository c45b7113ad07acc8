//! The bounded result cache, the in-flight deduplicator, and the one
//! miss path that joins them.
//!
//! [`ResultCache`] memoizes values under [`CacheKey`]s (full canonical
//! encodings, so hash collisions can never alias entries) with
//! least-recently-used eviction and hit/miss/eviction counters.
//! [`SingleFlight`] collapses concurrent identical computations: the
//! first caller computes, every concurrent duplicate blocks on a
//! condition variable and receives the leader's result.
//! [`resolve_miss`] is the one double-checked miss path over the pair,
//! shared by the serving layer's cell store and the pipeline's schedule
//! memo: an identical request storm runs the pipeline once, and cells
//! that pose one scheduling problem at the same time search it once.

use std::collections::HashMap;
use std::sync::{Arc, Condvar, Mutex};

use crate::cachekey::CacheKey;

/// Cache observability counters, as served by `/stats`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups answered from the cache.
    pub hits: u64,
    /// Lookups that found nothing.
    pub misses: u64,
    /// Entries evicted to make room.
    pub evictions: u64,
    /// Entries inserted.
    pub insertions: u64,
}

struct Entry<V> {
    value: V,
    /// Last-touch tick; the minimum across entries is the LRU victim.
    lru: u64,
}

/// A bounded memo table keyed by canonical encodings, with LRU
/// eviction. Both `get` (on hit) and `insert` refresh an entry's
/// recency.
pub struct ResultCache<V> {
    capacity: usize,
    tick: u64,
    map: HashMap<CacheKey, Entry<V>>,
    stats: CacheStats,
}

impl<V: Clone> ResultCache<V> {
    /// An empty cache holding at most `capacity` entries.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    #[must_use]
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "cache capacity must be positive");
        ResultCache {
            capacity,
            tick: 0,
            map: HashMap::new(),
            stats: CacheStats::default(),
        }
    }

    /// Looks up `key`, counting a hit or miss and refreshing recency on
    /// hit.
    pub fn get(&mut self, key: &CacheKey) -> Option<V> {
        let found = self.get_uncounted(key);
        self.stats.hits += u64::from(found.is_some());
        self.stats.misses += u64::from(found.is_none());
        found
    }

    /// Inserts (or refreshes) `key`, evicting the least recently used
    /// entry if the cache is full. Returns the evicted key, if any —
    /// the persistence layer appends a tombstone for it, so a replay of
    /// the log drops the victim too.
    pub fn insert(&mut self, key: CacheKey, value: V) -> Option<CacheKey> {
        let (new, evicted) = self.put(key, value);
        self.stats.insertions += u64::from(new);
        self.stats.evictions += u64::from(evicted.is_some());
        evicted
    }

    /// Inserts `key` without touching the hit/miss/insertion counters —
    /// for restoring persisted entries at boot, so `/stats` still
    /// reflects only this process's traffic. Respects capacity (excess
    /// preloads evict silently, without counting) and assigns recency
    /// in call order: preload least-recently-used entries first.
    pub fn preload(&mut self, key: CacheKey, value: V) {
        self.put(key, value);
    }

    /// Stores `key` as the most recent entry. A new key that finds the
    /// cache full first evicts the least recently used entry. Returns
    /// whether the key was new, and the evicted key.
    fn put(&mut self, key: CacheKey, value: V) -> (bool, Option<CacheKey>) {
        self.tick += 1;
        if let Some(entry) = self.map.get_mut(&key) {
            entry.value = value;
            entry.lru = self.tick;
            return (false, None);
        }
        let mut evicted = None;
        if self.map.len() >= self.capacity {
            // O(n) victim scan: it runs only on insert-past-capacity.
            let victim = self
                .map
                .iter()
                .min_by_key(|(_, e)| e.lru)
                .map(|(k, _)| k.clone())
                .expect("full cache is nonempty");
            self.map.remove(&victim);
            evicted = Some(victim);
        }
        self.map.insert(
            key,
            Entry {
                value,
                lru: self.tick,
            },
        );
        (true, evicted)
    }

    /// Drops `key` if resident, without touching the counters — for
    /// replaying a persisted tombstone at boot.
    pub fn remove(&mut self, key: &CacheKey) {
        self.map.remove(key);
    }

    /// Every resident entry, least recently used first — the order a
    /// compaction writes them, so a reload replays recency faithfully.
    #[must_use]
    pub fn entries_by_recency(&self) -> Vec<(CacheKey, V)> {
        let mut entries: Vec<(&CacheKey, &Entry<V>)> = self.map.iter().collect();
        entries.sort_by_key(|(_, e)| e.lru);
        entries
            .into_iter()
            .map(|(k, e)| (k.clone(), e.value.clone()))
            .collect()
    }

    /// Looks up `key` refreshing recency but **without** counting a hit
    /// or miss — for re-checks of a lookup already counted (the one in
    /// [`resolve_miss`]), so `/stats` reports one outcome per request.
    fn get_uncounted(&mut self, key: &CacheKey) -> Option<V> {
        self.tick += 1;
        let tick = self.tick;
        self.map.get_mut(key).map(|entry| {
            entry.lru = tick;
            entry.value.clone()
        })
    }

    /// Whether `key` is resident, without touching recency or counters.
    #[must_use]
    pub fn contains(&self, key: &CacheKey) -> bool {
        self.map.contains_key(key)
    }

    /// Resident entry count.
    #[must_use]
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// Whether the cache is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// The configured capacity.
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// A snapshot of the counters.
    #[must_use]
    pub fn stats(&self) -> CacheStats {
        self.stats
    }
}

enum FlightState<V> {
    /// The leader is still computing.
    Pending,
    /// The leader finished; followers clone the value.
    Done(V),
    /// The leader's `compute` unwound; followers must retry (one of
    /// them becomes the next leader).
    Poisoned,
}

struct Flight<V> {
    state: Mutex<FlightState<V>>,
    done: Condvar,
}

/// Deduplicates concurrent identical computations by key, for
/// [`resolve_miss`].
pub struct SingleFlight<V> {
    inflight: Mutex<HashMap<Vec<u8>, Arc<Flight<V>>>>,
}

/// Retires the leader's flight on every exit path: `complete` publishes
/// the value; `Drop` without completion (the leader's `compute`
/// unwound) poisons the flight and wakes every waiter so the key is
/// never wedged.
struct FlightGuard<'a, V: Clone> {
    owner: &'a SingleFlight<V>,
    key: &'a [u8],
    flight: &'a Arc<Flight<V>>,
    completed: bool,
}

impl<V: Clone> FlightGuard<'_, V> {
    fn complete(mut self, value: V) {
        *self.flight.state.lock().expect("flight lock") = FlightState::Done(value);
        self.flight.done.notify_all();
        self.owner
            .inflight
            .lock()
            .expect("inflight lock")
            .remove(self.key);
        self.completed = true;
    }
}

impl<V: Clone> Drop for FlightGuard<'_, V> {
    fn drop(&mut self) {
        if self.completed {
            return;
        }
        // Unwinding: never panic again from here. The locks cannot be
        // held by this thread (compute ran without them), but degrade
        // gracefully if they were poisoned by another thread.
        if let Ok(mut state) = self.flight.state.lock() {
            *state = FlightState::Poisoned;
        }
        self.flight.done.notify_all();
        if let Ok(mut inflight) = self.owner.inflight.lock() {
            inflight.remove(self.key);
        }
    }
}

impl<V: Clone> SingleFlight<V> {
    /// An empty deduplicator.
    #[must_use]
    pub fn new() -> Self {
        SingleFlight {
            inflight: Mutex::new(HashMap::new()),
        }
    }

    /// Runs `compute` for `key` unless an identical computation is
    /// already in flight, in which case this call blocks and returns the
    /// leader's result. The boolean is `true` for the leader (the caller
    /// that actually computed).
    ///
    /// A `compute` that panics does not wedge the key: the panic
    /// propagates to the leader's caller, and blocked followers wake
    /// and retry — one of them leads a fresh computation.
    ///
    /// # Panics
    ///
    /// Panics if an internal lock is poisoned, or propagates `compute`'s
    /// own panic to the leader.
    fn work<F: FnOnce() -> V>(&self, key: &[u8], compute: F) -> (V, bool) {
        let mut compute = Some(compute);
        loop {
            let flight = {
                let mut inflight = self.inflight.lock().expect("inflight lock");
                if let Some(existing) = inflight.get(key) {
                    existing.clone()
                } else {
                    let flight = Arc::new(Flight {
                        state: Mutex::new(FlightState::Pending),
                        done: Condvar::new(),
                    });
                    inflight.insert(key.to_vec(), flight.clone());
                    drop(inflight);

                    let guard = FlightGuard {
                        owner: self,
                        key,
                        flight: &flight,
                        completed: false,
                    };
                    let compute = compute.take().expect("a caller leads at most once");
                    let value = compute();
                    guard.complete(value.clone());
                    return (value, true);
                }
            };
            let mut state = flight.state.lock().expect("flight lock");
            loop {
                match &*state {
                    FlightState::Pending => {
                        state = flight.done.wait(state).expect("flight wait");
                    }
                    FlightState::Done(value) => return (value.clone(), false),
                    // Leader died; retry from the top (the poisoned
                    // flight was already retired from the map).
                    FlightState::Poisoned => break,
                }
            }
        }
    }
}

impl<V: Clone> Default for SingleFlight<V> {
    fn default() -> Self {
        SingleFlight::new()
    }
}

/// Resolves a lookup of `key` that missed `cache` (the caller counted
/// the miss): single flight on the key, an uncounted re-check under the
/// flight, then `compute`. `publish` stores an `Ok` value under the
/// cache lock before the flight retires, so a racer's re-check finds it.
/// An `Err` is not published: the flight's followers receive it, and
/// the next caller computes afresh. The boolean is `true` for the
/// flight's leader.
///
/// # Panics
///
/// Panics if the cache lock is poisoned, or propagates `compute`'s
/// panic to the leader; its followers retry, and one of them leads.
pub fn resolve_miss<V: Clone, E: Clone>(
    cache: &Mutex<ResultCache<V>>,
    flight: &SingleFlight<Result<V, E>>,
    key: &CacheKey,
    compute: impl FnOnce() -> Result<V, E>,
    publish: impl FnOnce(&mut ResultCache<V>, &V),
) -> (Result<V, E>, bool) {
    flight.work(key.bytes(), || {
        if let Some(value) = cache.lock().expect("cache lock").get_uncounted(key) {
            return Ok(value);
        }
        let value = compute()?;
        publish(&mut cache.lock().expect("cache lock"), &value);
        Ok(value)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    fn key(n: u8) -> CacheKey {
        CacheKey::from_bytes(vec![n])
    }

    #[test]
    fn hit_miss_and_counters() {
        let mut c: ResultCache<u32> = ResultCache::new(4);
        assert_eq!(c.get(&key(1)), None);
        c.insert(key(1), 10);
        assert_eq!(c.get(&key(1)), Some(10));
        assert_eq!(c.get(&key(2)), None);
        let s = c.stats();
        assert_eq!((s.hits, s.misses, s.insertions, s.evictions), (1, 2, 1, 0));
        assert_eq!(c.len(), 1);
        assert!(!c.is_empty());
    }

    #[test]
    fn lru_evicts_in_insertion_use_order() {
        let mut c: ResultCache<u32> = ResultCache::new(2);
        c.insert(key(1), 1);
        c.insert(key(2), 2);
        // Touch 1 so 2 becomes the LRU victim.
        assert_eq!(c.get(&key(1)), Some(1));
        c.insert(key(3), 3);
        assert!(c.contains(&key(1)));
        assert!(!c.contains(&key(2)), "LRU entry must go first");
        assert!(c.contains(&key(3)));
        assert_eq!(c.stats().evictions, 1);

        // Without the touch, pure insertion order drives eviction.
        let mut c: ResultCache<u32> = ResultCache::new(2);
        c.insert(key(1), 1);
        c.insert(key(2), 2);
        c.insert(key(3), 3);
        assert!(!c.contains(&key(1)));
        assert!(c.contains(&key(2)) && c.contains(&key(3)));
    }

    #[test]
    fn reinserting_refreshes_instead_of_evicting() {
        let mut c: ResultCache<u32> = ResultCache::new(2);
        c.insert(key(1), 1);
        c.insert(key(2), 2);
        c.insert(key(1), 11); // refresh, no eviction
        assert_eq!(c.stats().evictions, 0);
        assert_eq!(c.get(&key(1)), Some(11));
        // 2 is now LRU.
        c.insert(key(3), 3);
        assert!(!c.contains(&key(2)));
    }

    #[test]
    fn single_flight_runs_distinct_keys_independently() {
        let sf: SingleFlight<u32> = SingleFlight::new();
        let calls = AtomicUsize::new(0);
        let (a, lead_a) = sf.work(b"a", || {
            calls.fetch_add(1, Ordering::SeqCst);
            1
        });
        let (b, lead_b) = sf.work(b"b", || {
            calls.fetch_add(1, Ordering::SeqCst);
            2
        });
        assert_eq!((a, b), (1, 2));
        assert!(lead_a && lead_b);
        assert_eq!(calls.load(Ordering::SeqCst), 2);
    }

    #[test]
    fn panicking_leader_does_not_wedge_the_key() {
        let sf: SingleFlight<u32> = SingleFlight::new();
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            sf.work(b"k", || panic!("compute exploded"))
        }));
        assert!(result.is_err(), "leader's panic propagates");
        // The key is immediately usable again: a fresh leader computes.
        let (v, leader) = sf.work(b"k", || 7);
        assert_eq!(v, 7);
        assert!(leader);
    }

    #[test]
    fn followers_recover_from_a_dead_leader() {
        use std::sync::Barrier;
        let sf: SingleFlight<u32> = SingleFlight::new();
        let entered = Barrier::new(2);
        std::thread::scope(|scope| {
            let leader = scope.spawn(|| {
                let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    sf.work(b"k", || {
                        entered.wait(); // follower may now pile up behind us
                        std::thread::sleep(std::time::Duration::from_millis(50));
                        panic!("leader dies mid-flight")
                    })
                }));
                assert!(result.is_err());
            });
            let follower = scope.spawn(|| {
                entered.wait();
                // The original leader is asleep inside its compute, so
                // this call joins that flight, observes the poisoning,
                // retries and leads its own computation.
                let (v, _) = sf.work(b"k", || 9);
                assert_eq!(v, 9);
            });
            leader.join().expect("leader thread");
            follower.join().expect("follower thread");
        });
    }

    #[test]
    fn concurrent_identical_requests_compute_once() {
        use std::sync::Barrier;
        let sf: SingleFlight<u64> = SingleFlight::new();
        let calls = AtomicUsize::new(0);
        let barrier = Barrier::new(8);
        let leaders = AtomicUsize::new(0);
        std::thread::scope(|scope| {
            for _ in 0..8 {
                scope.spawn(|| {
                    barrier.wait();
                    let (v, leader) = sf.work(b"same", || {
                        calls.fetch_add(1, Ordering::SeqCst);
                        // Stay in flight long enough for every follower
                        // to pile up behind the leader.
                        std::thread::sleep(std::time::Duration::from_millis(50));
                        42
                    });
                    assert_eq!(v, 42);
                    if leader {
                        leaders.fetch_add(1, Ordering::SeqCst);
                    }
                });
            }
        });
        assert_eq!(calls.load(Ordering::SeqCst), 1, "exactly one computation");
        assert_eq!(leaders.load(Ordering::SeqCst), 1, "exactly one leader");
    }

    #[test]
    fn a_failed_flight_hands_its_error_to_followers_and_publishes_nothing() {
        const FOLLOWERS: usize = 3;
        let cache = Mutex::new(ResultCache::<u32>::new(4));
        let flight: SingleFlight<Result<u32, String>> = SingleFlight::new();
        let k = key(7);
        let calls = AtomicUsize::new(0);
        let published = AtomicUsize::new(0);
        let resolve = || {
            resolve_miss(
                &cache,
                &flight,
                &k,
                || {
                    calls.fetch_add(1, Ordering::SeqCst);
                    // The gate: hold the flight until every follower
                    // has joined it (each holds a clone of its `Arc`,
                    // next to the map's and the leader's).
                    while flight
                        .inflight
                        .lock()
                        .unwrap()
                        .get(k.bytes())
                        .map_or(0, std::sync::Arc::strong_count)
                        < 2 + FOLLOWERS
                    {
                        std::thread::yield_now();
                    }
                    Err("no schedule".to_string())
                },
                |cache, v| {
                    published.fetch_add(1, Ordering::SeqCst);
                    cache.insert(k.clone(), *v);
                },
            )
        };
        let outcomes: Vec<(Result<u32, String>, bool)> = std::thread::scope(|scope| {
            let threads: Vec<_> = (0..=FOLLOWERS).map(|_| scope.spawn(resolve)).collect();
            threads.into_iter().map(|t| t.join().unwrap()).collect()
        });
        assert_eq!(calls.load(Ordering::SeqCst), 1, "one computation");
        assert_eq!(outcomes.iter().filter(|(_, leader)| *leader).count(), 1);
        for (outcome, _) in &outcomes {
            assert_eq!(outcome, &Err("no schedule".to_string()));
        }
        assert_eq!(published.load(Ordering::SeqCst), 0);
        assert!(cache.lock().unwrap().is_empty(), "an error is not cached");

        // The key is free again: the next caller computes, and its
        // success is published.
        let (value, leader) = resolve_miss(
            &cache,
            &flight,
            &k,
            || Ok(5),
            |cache, v| {
                cache.insert(k.clone(), *v);
            },
        );
        assert_eq!((value, leader), (Ok(5), true));
        assert_eq!(cache.lock().unwrap().get(&k), Some(5));
    }
}
