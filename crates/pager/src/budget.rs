//! [`PageCache`]: the one memory budget, and the one cache, behind
//! every paged store of a snapshot.
//!
//! `--memory-budget` bounds *decoded resident bytes* across graph
//! segments and tuple blocks together. Both stores of a snapshot (and
//! the stores of every later ingest epoch) register with one cache and
//! keep their pages in it, keyed `(store id, page key)`, so there is
//! one recency order: rendering an answer set competes with backward
//! expansion for the same bytes, and whichever pages were touched least
//! recently go first, whoever owns them.
//!
//! * **Hard bound.** Room is made *before* a page is inserted, so
//!   resident bytes never exceed the budget. The sole exception is a
//!   single page larger than the whole budget, which is held alone (a
//!   store has to hand the page to its caller anyway, and dropping it
//!   would re-decode it on every access).
//! * **Victim choice** is CLOCK: each entry carries a reference bit a
//!   hit sets and the sweeping hand clears, so a hit needs only the
//!   shared lock and an eviction is O(1) amortized. A page enters with
//!   its bit clear — it must be touched again to outlive one sweep, so
//!   pages a single expansion touches once do not flush the hot set.
//! * **Misses decode outside the lock.** The read, checksum and decode
//!   run with no cache lock held; if two threads miss on the same page
//!   the second to finish drops its copy. A load that fails or panics
//!   therefore changes nothing in the cache.
//! * **Epoch turnover.** A store calls [`PageCache::release`] when it
//!   drops, returning its residency to the pool.

use crate::codec::DecodedSegment;
use banks_graph::FxHashMap;
use banks_storage::TupleBlock;
use std::sync::atomic::{AtomicBool, AtomicU32, Ordering};
use std::sync::{Arc, RwLock};
use std::time::Instant;

/// A decoded page of either paged store.
#[derive(Debug, Clone)]
pub enum Page {
    /// A graph adjacency segment.
    Segment(Arc<DecodedSegment>),
    /// A tuple block.
    Block(Arc<TupleBlock>),
}

impl Page {
    /// Decoded heap footprint — what the budget counts.
    pub fn bytes(&self) -> usize {
        match self {
            Page::Segment(seg) => seg.bytes(),
            Page::Block(block) => block.bytes,
        }
    }
}

/// One store's share of a [`PageCache`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Decoded bytes of this store's resident pages.
    pub resident_bytes: usize,
    /// This store's resident pages.
    pub resident_pages: usize,
    /// Pages this store decoded (a re-decode after eviction counts
    /// again, as does a decode that lost a race and was dropped).
    pub page_ins: u64,
    /// This store's pages evicted to make room (for any store's page).
    pub evictions: u64,
    /// Nanoseconds this store spent reading and decoding pages.
    pub decode_nanos: u64,
}

type Key = (u32, u64);

#[derive(Debug)]
struct Slot {
    key: Key,
    page: Page,
    /// CLOCK reference bit. `Relaxed` everywhere: it is a recency hint
    /// and publishes no other data.
    referenced: AtomicBool,
}

#[derive(Debug, Default)]
struct Inner {
    map: FxHashMap<Key, usize>,
    /// The clock face; `None` slots are on the `free` list.
    slots: Vec<Option<Slot>>,
    free: Vec<usize>,
    hand: usize,
    used: usize,
    stores: FxHashMap<u32, CacheStats>,
}

impl Inner {
    /// Insert `page` (not resident, room already made) with its
    /// reference bit clear.
    fn insert(&mut self, key: Key, page: Page) {
        let bytes = page.bytes();
        let slot = Some(Slot {
            key,
            page,
            referenced: AtomicBool::new(false),
        });
        // The slot freed last is the one just behind the hand, so the
        // new page is the last the next sweep reaches.
        let index = match self.free.pop() {
            Some(index) => {
                self.slots[index] = slot;
                index
            }
            None => {
                self.slots.push(slot);
                self.slots.len() - 1
            }
        };
        self.map.insert(key, index);
        self.used += bytes;
        let stats = self.stores.entry(key.0).or_default();
        stats.resident_bytes += bytes;
        stats.resident_pages += 1;
    }

    fn remove(&mut self, index: usize) -> Slot {
        let slot = self.slots[index].take().expect("removing an occupied slot");
        let bytes = slot.page.bytes();
        self.map.remove(&slot.key);
        self.free.push(index);
        self.used -= bytes;
        let stats = self.stores.entry(slot.key.0).or_default();
        stats.resident_bytes -= bytes;
        stats.resident_pages -= 1;
        slot
    }

    /// Evict the first entry the hand finds with its reference bit
    /// clear, clearing bits as it passes. Must not be called empty.
    fn evict_one(&mut self) {
        loop {
            self.hand = (self.hand + 1) % self.slots.len();
            let spared = match &self.slots[self.hand] {
                None => true,
                Some(slot) => slot.referenced.swap(false, Ordering::Relaxed),
            };
            if !spared {
                let slot = self.remove(self.hand);
                self.stores.entry(slot.key.0).or_default().evictions += 1;
                return;
            }
        }
    }
}

/// A budget-bounded cache of decoded pages shared by every paged store
/// of a snapshot (see the module docs).
#[derive(Debug)]
pub struct PageCache {
    budget: usize,
    next_store: AtomicU32,
    inner: RwLock<Inner>,
}

const POISONED: &str = "page cache lock poisoned";

impl PageCache {
    /// A cache bounded to `budget` decoded bytes, to be shared via `Arc`.
    pub fn new(budget: usize) -> Arc<PageCache> {
        Arc::new(PageCache {
            budget,
            next_store: AtomicU32::new(0),
            inner: RwLock::default(),
        })
    }

    /// A fresh store id; the caller keys its pages with it and
    /// [`release`](PageCache::release)s it on drop.
    pub fn register(&self) -> u32 {
        self.next_store.fetch_add(1, Ordering::Relaxed)
    }

    /// The configured budget in bytes.
    pub fn budget(&self) -> usize {
        self.budget
    }

    /// Decoded bytes resident across all stores.
    pub fn used(&self) -> usize {
        self.inner.read().expect(POISONED).used
    }

    /// Residency and counters of `store`.
    pub fn stats(&self, store: u32) -> CacheStats {
        let inner = self.inner.read().expect(POISONED);
        inner.stores.get(&store).copied().unwrap_or_default()
    }

    /// Page `key` of `store`, calling `load` to read and decode it on a
    /// miss. `load` runs with no cache lock held; its error is returned
    /// as is and leaves the cache untouched.
    pub fn get_or_load<E>(
        &self,
        store: u32,
        key: u64,
        load: impl FnOnce() -> Result<Page, E>,
    ) -> Result<Page, E> {
        let key = (store, key);
        {
            let inner = self.inner.read().expect(POISONED);
            if let Some(&index) = inner.map.get(&key) {
                let slot = inner.slots[index]
                    .as_ref()
                    .expect("mapped slot is occupied");
                // Test first: a hot page's bit is already set, and a
                // plain load keeps its cache line shared across workers.
                if !slot.referenced.load(Ordering::Relaxed) {
                    slot.referenced.store(true, Ordering::Relaxed);
                }
                return Ok(slot.page.clone());
            }
        }

        let start = Instant::now();
        let page = load()?;
        let nanos = start.elapsed().as_nanos() as u64;
        let bytes = page.bytes();

        let mut inner = self.inner.write().expect(POISONED);
        let stats = inner.stores.entry(store).or_default();
        stats.page_ins += 1;
        stats.decode_nanos += nanos;
        if let Some(&index) = inner.map.get(&key) {
            // Another thread decoded this page while we did; keep theirs.
            let slot = inner.slots[index]
                .as_ref()
                .expect("mapped slot is occupied");
            return Ok(slot.page.clone());
        }
        while inner.used + bytes > self.budget && !inner.map.is_empty() {
            inner.evict_one();
        }
        inner.insert(key, page.clone());
        Ok(page)
    }

    /// Drop every page and counter of `store`, returning the bytes that
    /// frees. Called from the stores' `Drop`, so it never panics: on a
    /// poisoned lock it gives up and frees nothing.
    pub fn release(&self, store: u32) -> usize {
        let Ok(mut inner) = self.inner.write() else {
            return 0;
        };
        let before = inner.used;
        for index in 0..inner.slots.len() {
            if inner.slots[index]
                .as_ref()
                .is_some_and(|s| s.key.0 == store)
            {
                inner.remove(index);
            }
        }
        inner.stores.remove(&store);
        before - inner.used
    }
}
