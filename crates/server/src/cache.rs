//! A sharded LRU cache for query results.
//!
//! Result caching is the first lever for serving heavy traffic: keyword
//! query streams are heavily skewed (popular entities are searched over
//! and over), so a small cache absorbs most of the load. The cache is
//! split into independently locked shards — a query only contends with
//! queries hashing to the same shard — and every shard keeps an exact
//! LRU order via an intrusive doubly-linked list over a dense slot
//! vector, so both `get` and `insert` are O(1).
//!
//! A shard stores each key once, in its slot: the lookup index is an
//! open-addressing table of slot numbers, not a `HashMap` holding a
//! second copy of every key. Slots are reserved as entries arrive, never
//! past a shard's capacity. [`ShardedLruCache::table_bytes`] counts the
//! shards, slots and buckets; with what each entry owns beyond its slot
//! (summed by [`ShardedLruCache::fold`], O(1) an entry for the service's
//! results) that is `/stats` `cache.bytes`, an upper bound on what the
//! cache holds.
//!
//! Counters (hits, misses, insertions, evictions) are lock-free atomics
//! observable while the cache is under load; `/stats` reports them.

use std::hash::{BuildHasher, Hash, RandomState};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// Sentinel for "no slot" in the intrusive list and the index.
const NIL: u32 = u32::MAX;

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

/// One live entry. The key lives here and nowhere else: the shard's
/// index holds slot numbers, not keys.
struct Slot<K, V> {
    key: K,
    value: V,
    /// The key's hash: its home bucket in the index, and a cheap
    /// pre-check before `==`.
    hash: u64,
    prev: u32,
    next: u32,
}

/// One shard: an exact-LRU map guarded by its own mutex.
///
/// `slots` is dense — slot `i` is the `i`-th live entry, and removing
/// one moves the last slot into its place — so a removed entry's key and
/// value are dropped at once and the shard holds no free list.
/// `buckets` is an open-addressing index over the slots (linear probing,
/// a power-of-two length kept at most 7/8 full, backward-shift
/// deletion).
struct Shard<K, V> {
    slots: Vec<Slot<K, V>>,
    buckets: Box<[u32]>,
    /// Most recently used.
    head: u32,
    /// Least recently used (eviction end).
    tail: u32,
    capacity: usize,
}

/// Buckets of an empty shard; the index doubles as entries arrive.
const MIN_BUCKETS: usize = 8;

impl<K: Hash + Eq + Clone, V: Clone> Shard<K, V> {
    fn new(capacity: usize) -> Self {
        Shard {
            slots: Vec::new(),
            buckets: vec![NIL; MIN_BUCKETS].into_boxed_slice(),
            head: NIL,
            tail: NIL,
            capacity,
        }
    }

    fn mask(&self) -> usize {
        self.buckets.len() - 1
    }

    /// The bucket holding the entry for `key`, if any.
    fn find(&self, hash: u64, key: &K) -> Option<usize> {
        let mask = self.mask();
        let mut pos = hash as usize & mask;
        loop {
            let idx = self.buckets[pos];
            if idx == NIL {
                return None;
            }
            let slot = &self.slots[idx as usize];
            if slot.hash == hash && slot.key == *key {
                return Some(pos);
            }
            pos = (pos + 1) & mask;
        }
    }

    /// The bucket holding slot `idx` (which must be live).
    fn bucket_of(&self, idx: u32) -> usize {
        let mask = self.mask();
        let mut pos = self.slots[idx as usize].hash as usize & mask;
        while self.buckets[pos] != idx {
            pos = (pos + 1) & mask;
        }
        pos
    }

    /// Point the first free bucket of `hash`'s probe run at `idx`.
    fn place(&mut self, hash: u64, idx: u32) {
        let mask = self.mask();
        let mut pos = hash as usize & mask;
        while self.buckets[pos] != NIL {
            pos = (pos + 1) & mask;
        }
        self.buckets[pos] = idx;
    }

    /// Empty bucket `pos`, shifting later members of its probe run back
    /// so every lookup still reaches its entry without tombstones.
    fn erase_bucket(&mut self, pos: usize) {
        let mask = self.mask();
        let mut hole = pos;
        let mut next = (pos + 1) & mask;
        loop {
            let idx = self.buckets[next];
            if idx == NIL {
                break;
            }
            let home = self.slots[idx as usize].hash as usize & mask;
            // The entry may fill the hole if the hole lies on its probe
            // path, i.e. no farther from its home than its own bucket.
            if next.wrapping_sub(home) & mask >= next.wrapping_sub(hole) & mask {
                self.buckets[hole] = idx;
                hole = next;
            }
            next = (next + 1) & mask;
        }
        self.buckets[hole] = NIL;
    }

    fn unlink(&mut self, idx: u32) {
        let (prev, next) = {
            let slot = &self.slots[idx as usize];
            (slot.prev, slot.next)
        };
        if prev == NIL {
            self.head = next;
        } else {
            self.slots[prev as usize].next = next;
        }
        if next == NIL {
            self.tail = prev;
        } else {
            self.slots[next as usize].prev = prev;
        }
    }

    fn push_front(&mut self, idx: u32) {
        let head = self.head;
        let slot = &mut self.slots[idx as usize];
        slot.prev = NIL;
        slot.next = head;
        if head != NIL {
            self.slots[head as usize].prev = idx;
        }
        self.head = idx;
        if self.tail == NIL {
            self.tail = idx;
        }
    }

    fn get(&mut self, hash: u64, key: &K) -> Option<V> {
        let idx = self.buckets[self.find(hash, key)?];
        self.unlink(idx);
        self.push_front(idx);
        Some(self.slots[idx as usize].value.clone())
    }

    /// Borrow the entry for `key` without touching its recency.
    fn peek(&self, hash: u64, key: &K) -> Option<&V> {
        let pos = self.find(hash, key)?;
        Some(&self.slots[self.buckets[pos] as usize].value)
    }

    /// Drop the entry in bucket `pos`, moving the last slot into its
    /// place.
    fn remove_at(&mut self, pos: usize) {
        let idx = self.buckets[pos];
        self.unlink(idx);
        self.erase_bucket(pos);
        let last = (self.slots.len() - 1) as u32;
        if idx != last {
            let bucket = self.bucket_of(last);
            self.buckets[bucket] = idx;
            let (prev, next) = {
                let moved = &self.slots[last as usize];
                (moved.prev, moved.next)
            };
            if prev == NIL {
                self.head = idx;
            } else {
                self.slots[prev as usize].next = idx;
            }
            if next == NIL {
                self.tail = idx;
            } else {
                self.slots[next as usize].prev = idx;
            }
        }
        self.slots.swap_remove(idx as usize);
    }

    /// Drop the entry for `key`, if present.
    fn remove(&mut self, hash: u64, key: &K) {
        if let Some(pos) = self.find(hash, key) {
            self.remove_at(pos);
        }
    }

    /// Insert or overwrite; returns whether an entry was evicted.
    fn insert(&mut self, hash: u64, key: K, value: V) -> bool {
        if let Some(pos) = self.find(hash, &key) {
            let idx = self.buckets[pos];
            self.slots[idx as usize].value = value;
            self.unlink(idx);
            self.push_front(idx);
            return false;
        }
        let mut evicted = false;
        if self.slots.len() >= self.capacity {
            debug_assert_ne!(self.tail, NIL);
            let pos = self.bucket_of(self.tail);
            self.remove_at(pos);
            evicted = true;
        }
        if self.slots.len() == self.slots.capacity() {
            // Double, but never past the shard's capacity.
            let more = self
                .slots
                .len()
                .max(4)
                .min(self.capacity - self.slots.len());
            self.slots.reserve_exact(more);
        }
        if (self.slots.len() + 1) * 8 > self.buckets.len() * 7 {
            self.buckets = vec![NIL; self.buckets.len() * 2].into_boxed_slice();
            for i in 0..self.slots.len() {
                self.place(self.slots[i].hash, i as u32);
            }
        }
        let idx = self.slots.len() as u32;
        self.slots.push(Slot {
            key,
            value,
            hash,
            prev: NIL,
            next: NIL,
        });
        self.place(hash, idx);
        self.push_front(idx);
        evicted
    }

    /// Bytes of the shard's own tables: every reserved slot (keys and
    /// values inline) and every bucket.
    fn table_bytes(&self) -> usize {
        self.slots.capacity() * size_of::<Slot<K, V>>() + self.buckets.len() * size_of::<u32>()
    }

    /// Keys from most to least recently used (test/debug aid).
    #[cfg(test)]
    fn lru_order(&self) -> Vec<K> {
        let mut out = Vec::with_capacity(self.slots.len());
        let mut idx = self.head;
        while idx != NIL {
            out.push(self.slots[idx as usize].key.clone());
            idx = self.slots[idx as usize].next;
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
        // Slot numbers are `u32`, one value short of the sentinel.
        let per_shard = capacity.max(1).div_ceil(shard_count).min(NIL as usize - 1);
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

    /// The key's hash and its shard. High bits pick the shard so the
    /// index's low-bit bucketing inside a shard stays independent of
    /// shard selection.
    fn shard_of(&self, key: &K) -> (u64, &Mutex<Shard<K, V>>) {
        let hash = self.hasher.hash_one(key);
        let idx = (hash >> 32) as usize & (self.shards.len() - 1);
        (hash, &self.shards[idx])
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
            let (hash, shard) = self.shard_of(key);
            let mut shard = shard.lock().expect("cache lock");
            match shard.get(hash, key) {
                Some(v) => match judge(&v) {
                    Validity::Valid => CacheLookup::Hit(v),
                    Validity::Stale => {
                        shard.remove(hash, key);
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
        let (hash, shard) = self.shard_of(&key);
        let mut shard = shard.lock().expect("cache lock");
        if let Some(existing) = shard.peek(hash, &key) {
            if !may_replace(existing) {
                return;
            }
        }
        let evicted = shard.insert(hash, key, value);
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
            .map(|s| s.lock().expect("cache lock").slots.len())
            .sum()
    }

    /// Fold `f` over every live entry, touching neither recency nor the
    /// counters — for scrape-time accounting. Shards are locked one at a
    /// time, so under concurrent writes the result is approximate.
    pub fn fold<A>(&self, init: A, mut f: impl FnMut(A, &K, &V) -> A) -> A {
        self.shards.iter().fold(init, |acc, shard| {
            let shard = shard.lock().expect("cache lock");
            shard
                .slots
                .iter()
                .fold(acc, |acc, slot| f(acc, &slot.key, &slot.value))
        })
    }

    /// Bytes of the cache's own tables: the shards, every reserved slot
    /// (each key and value inline, once) and every index bucket. Add
    /// what each live entry owns beyond its slot (via [`Self::fold`])
    /// for all the cache holds; reserved-but-empty slots and buckets
    /// count too, so that sum bounds the cache's heap from above,
    /// allocator headers aside.
    pub fn table_bytes(&self) -> usize {
        self.shards
            .iter()
            .map(|shard| {
                size_of::<Mutex<Shard<K, V>>>() + shard.lock().expect("cache lock").table_bytes()
            })
            .sum()
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
    fn table_bytes_count_reserved_slots_and_buckets() {
        // A slot is the key, the value, the hash and two links.
        let slot = size_of::<Slot<u32, u32>>();
        assert_eq!(slot, 4 + 4 + 8 + 4 + 4);
        let shard = size_of::<Mutex<Shard<u32, u32>>>();
        let cache: ShardedLruCache<u32, u32> = ShardedLruCache::new(6, 1);
        // Empty: no slots, eight buckets.
        assert_eq!(cache.table_bytes(), shard + 8 * 4);
        for k in 0..5 {
            cache.insert(k, k);
        }
        // Five entries: slots reserved 4 then 6 (the shard's capacity),
        // still eight buckets (at most 7/8 full).
        assert_eq!(cache.table_bytes(), shard + 6 * slot + 8 * 4);
        // The sixth fills the shard.
        cache.insert(5, 5);
        assert_eq!(cache.table_bytes(), shard + 6 * slot + 8 * 4);
        // Evictions reuse what is reserved.
        for k in 6..40 {
            cache.insert(k, k);
        }
        assert_eq!(cache.table_bytes(), shard + 6 * slot + 8 * 4);
    }

    /// A model check of the index and the dense slots: random inserts,
    /// overwrites, lookups and invalidations against a plain map with
    /// an explicit recency list, on a shard small enough to evict and
    /// to collide often.
    #[test]
    fn random_operations_match_a_model_lru() {
        let mut rng = proptest::test_rng("cache::random_operations_match_a_model_lru", 0);
        for capacity in [1usize, 2, 5, 13, 40] {
            let cache: ShardedLruCache<u64, u64> = ShardedLruCache::new(capacity, 1);
            // Most recent first.
            let mut model: Vec<(u64, u64)> = Vec::new();
            for step in 0..4000u64 {
                let key = rng.below(capacity as u64 * 3);
                match rng.below(4) {
                    0 | 1 => {
                        cache.insert(key, step);
                        model.retain(|&(k, _)| k != key);
                        model.insert(0, (key, step));
                        model.truncate(capacity);
                    }
                    2 => {
                        let want = model.iter().position(|&(k, _)| k == key);
                        assert_eq!(cache.get(&key), want.map(|i| model[i].1));
                        if let Some(i) = want {
                            let entry = model.remove(i);
                            model.insert(0, entry);
                        }
                    }
                    _ => {
                        let _ = cache.get_validate(&key, |_| Validity::Stale);
                        model.retain(|&(k, _)| k != key);
                    }
                }
                let keys: Vec<u64> = model.iter().map(|&(k, _)| k).collect();
                assert_eq!(
                    cache.lru_order_of_shard(0),
                    keys,
                    "capacity {capacity}, step {step}"
                );
            }
        }
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
