//! A sharded LRU cache for query results.
//!
//! Result caching is the first lever for serving heavy traffic: keyword
//! query streams are heavily skewed (popular entities are searched over
//! and over), so a small cache absorbs most of the load. The cache is
//! split into independently locked shards — a query only contends with
//! queries hashing to the same shard — and every shard keeps an exact
//! LRU order via an intrusive doubly-linked list over a slab, so both
//! `get` and `insert` are O(1).
//!
//! Counters (hits, misses, insertions, evictions) are lock-free atomics
//! observable while the cache is under load; `/stats` reports them.

use std::collections::HashMap;
use std::hash::{BuildHasher, Hash, RandomState};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// Sentinel for "no slot" in the intrusive list.
const NIL: usize = usize::MAX;

/// Snapshot of cache counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups that found a live entry.
    pub hits: u64,
    /// Lookups that found nothing.
    pub misses: u64,
    /// Entries written (including overwrites of an existing key).
    pub insertions: u64,
    /// Entries displaced by capacity pressure.
    pub evictions: u64,
    /// Entries dropped because a [`ShardedLruCache::get_validate`]
    /// predicate rejected them (e.g. stamped with a superseded snapshot
    /// epoch). Each invalidation also counts as a miss.
    pub invalidations: u64,
    /// Live entries right now.
    pub entries: usize,
    /// Maximum live entries across all shards.
    pub capacity: usize,
}

impl CacheStats {
    /// Fraction of lookups served from cache (0 when no lookups yet).
    pub(crate) fn hit_ratio(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

struct Slot<K, V> {
    key: K,
    value: V,
    prev: usize,
    next: usize,
}

/// One shard: an exact-LRU map guarded by its own mutex.
struct Shard<K, V> {
    map: HashMap<K, usize>,
    slots: Vec<Slot<K, V>>,
    free: Vec<usize>,
    /// Most recently used.
    head: usize,
    /// Least recently used (eviction end).
    tail: usize,
    capacity: usize,
}

impl<K: Hash + Eq + Clone, V: Clone> Shard<K, V> {
    fn new(capacity: usize) -> Self {
        Shard {
            map: HashMap::with_capacity(capacity.min(1024)),
            slots: Vec::with_capacity(capacity.min(1024)),
            free: Vec::new(),
            head: NIL,
            tail: NIL,
            capacity,
        }
    }

    fn unlink(&mut self, idx: usize) {
        let (prev, next) = (self.slots[idx].prev, self.slots[idx].next);
        if prev == NIL {
            self.head = next;
        } else {
            self.slots[prev].next = next;
        }
        if next == NIL {
            self.tail = prev;
        } else {
            self.slots[next].prev = prev;
        }
    }

    fn push_front(&mut self, idx: usize) {
        self.slots[idx].prev = NIL;
        self.slots[idx].next = self.head;
        if self.head != NIL {
            self.slots[self.head].prev = idx;
        }
        self.head = idx;
        if self.tail == NIL {
            self.tail = idx;
        }
    }

    fn get(&mut self, key: &K) -> Option<V> {
        let idx = *self.map.get(key)?;
        self.unlink(idx);
        self.push_front(idx);
        Some(self.slots[idx].value.clone())
    }

    /// Borrow the entry for `key` without touching its recency.
    fn peek(&self, key: &K) -> Option<&V> {
        self.map.get(key).map(|&idx| &self.slots[idx].value)
    }

    /// Drop the entry for `key`, if present.
    fn remove(&mut self, key: &K) {
        if let Some(idx) = self.map.remove(key) {
            self.unlink(idx);
            self.free.push(idx);
        }
    }

    /// Insert or overwrite; returns whether an entry was evicted.
    fn insert(&mut self, key: K, value: V) -> bool {
        if let Some(&idx) = self.map.get(&key) {
            self.slots[idx].value = value;
            self.unlink(idx);
            self.push_front(idx);
            return false;
        }
        let mut evicted = false;
        if self.map.len() >= self.capacity {
            let victim = self.tail;
            debug_assert_ne!(victim, NIL);
            self.unlink(victim);
            self.map.remove(&self.slots[victim].key);
            self.free.push(victim);
            evicted = true;
        }
        let idx = match self.free.pop() {
            Some(idx) => {
                self.slots[idx] = Slot {
                    key: key.clone(),
                    value,
                    prev: NIL,
                    next: NIL,
                };
                idx
            }
            None => {
                self.slots.push(Slot {
                    key: key.clone(),
                    value,
                    prev: NIL,
                    next: NIL,
                });
                self.slots.len() - 1
            }
        };
        self.map.insert(key, idx);
        self.push_front(idx);
        evicted
    }

    /// Keys from most to least recently used (test/debug aid).
    #[cfg(test)]
    fn lru_order(&self) -> Vec<K> {
        let mut out = Vec::with_capacity(self.map.len());
        let mut idx = self.head;
        while idx != NIL {
            out.push(self.slots[idx].key.clone());
            idx = self.slots[idx].next;
        }
        out
    }
}

/// Verdict a [`ShardedLruCache::get_validate`] predicate passes on an
/// entry it found.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Validity {
    /// Serve the entry.
    Valid,
    /// The entry is superseded: drop it and count an invalidation.
    Stale,
    /// The entry is *ahead of* the caller (e.g. a reader still pinned
    /// on an older snapshot finds a newer-epoch result): leave it for
    /// the callers it is valid for and treat this lookup as a miss.
    Newer,
}

/// Outcome of a validated lookup ([`ShardedLruCache::get_validate`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CacheLookup<V> {
    /// A live entry passed the predicate (counted as a hit).
    Hit(V),
    /// An entry existed but was superseded; it was removed and counted
    /// as a miss plus an invalidation.
    Stale,
    /// An entry exists but is newer than the caller can use; it was
    /// left in place and the lookup counted as a plain miss.
    Newer,
    /// No entry (counted as a miss).
    Miss,
}

/// A concurrent LRU cache split into independently locked shards.
pub struct ShardedLruCache<K, V> {
    shards: Vec<Mutex<Shard<K, V>>>,
    hasher: RandomState,
    capacity: usize,
    hits: AtomicU64,
    misses: AtomicU64,
    insertions: AtomicU64,
    evictions: AtomicU64,
    invalidations: AtomicU64,
}

impl<K: Hash + Eq + Clone, V: Clone> ShardedLruCache<K, V> {
    /// A cache of `shards` independent shards (floored at 1, rounded up
    /// to a power of two), each holding `ceil(capacity / shards)`
    /// entries. The effective total — reported by [`Self::capacity`] —
    /// is therefore rounded up to a multiple of the shard count and can
    /// exceed the requested `capacity` by up to `shards - 1` entries.
    pub fn new(capacity: usize, shards: usize) -> Self {
        let shard_count = shards.max(1).next_power_of_two();
        let per_shard = capacity.max(1).div_ceil(shard_count);
        ShardedLruCache {
            shards: (0..shard_count)
                .map(|_| Mutex::new(Shard::new(per_shard)))
                .collect(),
            hasher: RandomState::new(),
            capacity: per_shard * shard_count,
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            insertions: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
            invalidations: AtomicU64::new(0),
        }
    }

    fn shard_of(&self, key: &K) -> &Mutex<Shard<K, V>> {
        // High bits pick the shard so the map's low-bit bucketing inside
        // a shard stays independent of shard selection.
        let idx = (self.hasher.hash_one(key) >> 32) as usize & (self.shards.len() - 1);
        &self.shards[idx]
    }

    /// Look up a key, letting `judge` decide what to do with a found
    /// entry (see [`Validity`]).
    ///
    /// A [`Validity::Stale`] entry is removed under the same shard lock
    /// — no other thread can hit it in between — and counted as a miss
    /// plus an invalidation; the caller is expected to recompute and
    /// re-insert. This is the epoch check of the serving layer: entries
    /// are stamped with the snapshot epoch they were computed on, and a
    /// publish makes older stamps invalidate lazily, entry by entry,
    /// instead of flushing the whole cache at once. [`Validity::Newer`]
    /// protects the reverse race — a reader still pinned on an older
    /// snapshot must not destroy an entry that is perfectly valid for
    /// current readers.
    pub fn get_validate(&self, key: &K, judge: impl FnOnce(&V) -> Validity) -> CacheLookup<V> {
        let outcome = {
            let mut shard = self.shard_of(key).lock().expect("cache lock");
            match shard.get(key) {
                Some(v) => match judge(&v) {
                    Validity::Valid => CacheLookup::Hit(v),
                    Validity::Stale => {
                        shard.remove(key);
                        CacheLookup::Stale
                    }
                    Validity::Newer => CacheLookup::Newer,
                },
                None => CacheLookup::Miss,
            }
        };
        match &outcome {
            CacheLookup::Hit(_) => self.hits.fetch_add(1, Ordering::Relaxed),
            CacheLookup::Stale => {
                self.invalidations.fetch_add(1, Ordering::Relaxed);
                self.misses.fetch_add(1, Ordering::Relaxed)
            }
            CacheLookup::Newer | CacheLookup::Miss => self.misses.fetch_add(1, Ordering::Relaxed),
        };
        outcome
    }

    /// Retract one previously counted miss. For callers whose lookup
    /// missed but whose query then failed to execute: the entry was
    /// never computable, so keeping the miss would leave the counters
    /// claiming more cacheable lookups than answered queries.
    pub(crate) fn forget_miss(&self) {
        self.misses.fetch_sub(1, Ordering::Relaxed);
    }

    /// Insert (or overwrite) an entry, possibly evicting the shard's
    /// least recently used entry — unless an existing entry for the key
    /// makes `may_replace` return `false`. Checked and written under one
    /// shard lock, so a racing writer cannot slip a fresher entry in
    /// between.
    ///
    /// This closes the laggard-writer race of epoch caching: a reader
    /// that pinned an old snapshot, missed, and computed slowly must not
    /// clobber the newer-epoch result another reader cached meanwhile.
    pub fn insert_if(&self, key: K, value: V, may_replace: impl FnOnce(&V) -> bool) {
        let mut shard = self.shard_of(&key).lock().expect("cache lock");
        if let Some(existing) = shard.peek(&key) {
            if !may_replace(existing) {
                return;
            }
        }
        let evicted = shard.insert(key, value);
        drop(shard);
        self.insertions.fetch_add(1, Ordering::Relaxed);
        if evicted {
            self.evictions.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Live entry count (sums shard sizes; approximate under concurrency).
    pub(crate) fn len(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.lock().expect("cache lock").map.len())
            .sum()
    }

    /// Fold `f` over every live entry, touching neither recency nor the
    /// counters — for scrape-time accounting. Shards are locked one at a
    /// time, so under concurrent writes the result is approximate.
    pub fn fold<A>(&self, init: A, mut f: impl FnMut(A, &K, &V) -> A) -> A {
        self.shards.iter().fold(init, |acc, shard| {
            let shard = shard.lock().expect("cache lock");
            shard.map.values().fold(acc, |acc, &idx| {
                let slot = &shard.slots[idx];
                f(acc, &slot.key, &slot.value)
            })
        })
    }

    /// Total capacity in entries.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Snapshot the counters.
    pub(crate) fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            insertions: self.insertions.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            invalidations: self.invalidations.load(Ordering::Relaxed),
            entries: self.len(),
            capacity: self.capacity,
        }
    }

    /// Keys of one shard from most to least recently used — exposed for
    /// eviction-order tests; meaningful only for single-shard caches.
    #[cfg(test)]
    pub(crate) fn lru_order_of_shard(&self, shard: usize) -> Vec<K> {
        self.shards[shard].lock().expect("cache lock").lru_order()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    /// The plain lookup and overwrite the tests drive the cache with:
    /// a validated lookup that accepts every entry, and an insert that
    /// may replace anything.
    trait Plain<K, V> {
        fn get(&self, key: &K) -> Option<V>;
        fn insert(&self, key: K, value: V);
    }

    impl<K: Hash + Eq + Clone, V: Clone> Plain<K, V> for ShardedLruCache<K, V> {
        fn get(&self, key: &K) -> Option<V> {
            match self.get_validate(key, |_| Validity::Valid) {
                CacheLookup::Hit(v) => Some(v),
                _ => None,
            }
        }

        fn insert(&self, key: K, value: V) {
            self.insert_if(key, value, |_| true);
        }
    }

    #[test]
    fn evicts_least_recently_used_first() {
        let cache: ShardedLruCache<u32, u32> = ShardedLruCache::new(3, 1);
        cache.insert(1, 10);
        cache.insert(2, 20);
        cache.insert(3, 30);
        // Touch 1 so 2 becomes the LRU victim.
        assert_eq!(cache.get(&1), Some(10));
        cache.insert(4, 40);
        assert_eq!(cache.lru_order_of_shard(0), vec![4, 1, 3]);
        assert_eq!(cache.get(&2), None, "LRU entry was evicted");
        assert_eq!(cache.get(&3), Some(30));
        let stats = cache.stats();
        assert_eq!(stats.evictions, 1);
        assert_eq!(stats.entries, 3);
    }

    #[test]
    fn overwrite_refreshes_without_eviction() {
        let cache: ShardedLruCache<u32, u32> = ShardedLruCache::new(2, 1);
        cache.insert(1, 10);
        cache.insert(2, 20);
        cache.insert(1, 11);
        assert_eq!(cache.stats().evictions, 0);
        assert_eq!(cache.lru_order_of_shard(0), vec![1, 2]);
        assert_eq!(cache.get(&1), Some(11));
    }

    #[test]
    fn capacity_rounds_to_shards() {
        let cache: ShardedLruCache<u32, u32> = ShardedLruCache::new(10, 4);
        assert_eq!(cache.shard_count(), 4);
        assert!(cache.capacity() >= 10);
        let cache: ShardedLruCache<u32, u32> = ShardedLruCache::new(0, 0);
        assert_eq!(cache.capacity(), 1);
    }

    #[test]
    fn concurrent_hits_and_misses_count_exactly() {
        let cache: Arc<ShardedLruCache<u64, u64>> = Arc::new(ShardedLruCache::new(1024, 8));
        for k in 0..64 {
            cache.insert(k, k);
        }
        let threads: u64 = 8;
        let lookups_per_thread = 1000u64;
        std::thread::scope(|scope| {
            for t in 0..threads {
                let cache = Arc::clone(&cache);
                scope.spawn(move || {
                    for i in 0..lookups_per_thread {
                        // Even iterations hit (keys 0..64), odd ones miss.
                        let key = if i % 2 == 0 { (i + t) % 64 } else { 1000 + i };
                        let _ = cache.get(&key);
                    }
                });
            }
        });
        let stats = cache.stats();
        assert_eq!(stats.hits, threads * lookups_per_thread / 2);
        assert_eq!(stats.misses, threads * lookups_per_thread / 2);
        assert_eq!(stats.hit_ratio(), 0.5);
    }

    /// Epoch-style judge: serve matching stamps, drop older, skip newer.
    fn against(current: u64) -> impl Fn(&(u64, u32)) -> Validity {
        move |&(e, _)| match e.cmp(&current) {
            std::cmp::Ordering::Equal => Validity::Valid,
            std::cmp::Ordering::Less => Validity::Stale,
            std::cmp::Ordering::Greater => Validity::Newer,
        }
    }

    #[test]
    fn get_validate_invalidates_stale_entries() {
        let cache: ShardedLruCache<u32, (u64, u32)> = ShardedLruCache::new(8, 1);
        cache.insert(1, (0, 10)); // stamped epoch 0
        cache.insert(2, (0, 20));

        // Epoch 0 current: both hit.
        assert_eq!(
            cache.get_validate(&1, against(0)),
            CacheLookup::Hit((0, 10))
        );
        // Epoch bumps to 1: the entry is dropped, not served.
        assert_eq!(cache.get_validate(&1, against(1)), CacheLookup::Stale);
        // And it is really gone — the next lookup is a plain miss.
        assert_eq!(cache.get_validate(&1, against(1)), CacheLookup::Miss);
        // Re-inserted at the new epoch, it hits again.
        cache.insert(1, (1, 11));
        assert_eq!(
            cache.get_validate(&1, against(1)),
            CacheLookup::Hit((1, 11))
        );
        // Untouched entry 2 stays resident until looked up.
        assert_eq!(cache.len(), 2);

        let stats = cache.stats();
        assert_eq!(stats.hits, 2);
        assert_eq!(stats.misses, 2, "stale + plain miss");
        assert_eq!(stats.invalidations, 1);
        assert_eq!(stats.hits + stats.misses, 4, "every lookup accounted");
    }

    #[test]
    fn newer_entries_survive_laggard_lookups() {
        let cache: ShardedLruCache<u32, (u64, u32)> = ShardedLruCache::new(8, 1);
        cache.insert(1, (1, 11)); // computed at epoch 1
                                  // A reader still pinned on epoch 0 can't use it, but must not
                                  // destroy it either.
        assert_eq!(cache.get_validate(&1, against(0)), CacheLookup::Newer);
        assert_eq!(
            cache.get_validate(&1, against(1)),
            CacheLookup::Hit((1, 11))
        );
        let stats = cache.stats();
        assert_eq!(stats.invalidations, 0, "a newer entry is not stale");
        assert_eq!((stats.hits, stats.misses), (1, 1));
    }

    #[test]
    fn insert_if_refuses_to_clobber_newer_entries() {
        let cache: ShardedLruCache<u32, (u64, u32)> = ShardedLruCache::new(8, 1);
        // Laggard (epoch 0) computed after a fresher entry landed.
        cache.insert(1, (1, 11));
        cache.insert_if(1, (0, 10), |&(e, _)| e == 0);
        assert_eq!(
            cache.get_validate(&1, against(1)),
            CacheLookup::Hit((1, 11))
        );
        // Same-or-newer epoch may replace.
        cache.insert_if(1, (1, 12), |&(e, _)| e <= 1);
        assert_eq!(
            cache.get_validate(&1, against(1)),
            CacheLookup::Hit((1, 12))
        );
        // Absent keys insert unconditionally.
        cache.insert_if(2, (0, 20), |_| false);
        assert_eq!(
            cache.get_validate(&2, against(0)),
            CacheLookup::Hit((0, 20))
        );
        assert_eq!(cache.stats().insertions, 3, "skipped insert not counted");
    }

    #[test]
    fn remove_recycles_slots() {
        let cache: ShardedLruCache<u32, u32> = ShardedLruCache::new(2, 1);
        cache.insert(1, 10);
        cache.insert(2, 20);
        assert_eq!(
            cache.get_validate(&1, |_| Validity::Stale),
            CacheLookup::Stale
        );
        cache.insert(3, 30);
        assert_eq!(cache.stats().evictions, 0, "freed slot reused, no eviction");
        assert_eq!(cache.lru_order_of_shard(0), vec![3, 2]);
    }

    #[test]
    fn fold_visits_live_entries_without_touching_recency_or_counters() {
        let cache: ShardedLruCache<u32, u32> = ShardedLruCache::new(3, 1);
        for k in 1..=4 {
            cache.insert(k, k * 10);
        }
        let before = cache.stats();
        let order = cache.lru_order_of_shard(0);
        assert_eq!(cache.fold(0, |sum, _, &v| sum + v), 20 + 30 + 40);
        assert_eq!(cache.fold(0, |sum, &k, _| sum + k), 2 + 3 + 4);
        assert_eq!(cache.stats(), before);
        assert_eq!(cache.lru_order_of_shard(0), order);
    }

    #[test]
    fn sharded_cache_keeps_all_entries_within_capacity() {
        let cache: ShardedLruCache<u32, u32> = ShardedLruCache::new(64, 8);
        for k in 0..64 {
            cache.insert(k, k);
        }
        // Shards may be imbalanced, so some evictions are possible, but
        // the live count can never exceed capacity.
        assert!(cache.len() <= cache.capacity());
        assert!(cache.len() >= 32, "hashing should spread keys broadly");
    }
}
