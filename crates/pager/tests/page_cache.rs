//! `PageCache` accounting: the hard bound, per-store residency, release,
//! failed loads, and deterministic miss counts — serially and under
//! racing threads.

use banks_pager::{CacheStats, Page, PageCache};
use banks_storage::TupleBlock;
use proptest::prelude::*;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Barrier};

/// A page accounted at `bytes` (the cache never looks inside one).
fn page(bytes: usize) -> Page {
    Page::Block(Arc::new(TupleBlock {
        first_slot: 0,
        tuples: Vec::new(),
        back_refs: Vec::new(),
        bytes,
    }))
}

fn load(cache: &PageCache, store: u32, key: u64, bytes: usize) {
    cache
        .get_or_load(store, key, || Ok::<_, ()>(page(bytes)))
        .unwrap();
}

fn resident(stats: &[CacheStats]) -> (usize, usize) {
    (
        stats.iter().map(|s| s.resident_bytes).sum(),
        stats.iter().map(|s| s.resident_pages).sum(),
    )
}

#[test]
fn eviction_precedes_insert_so_the_bound_is_hard() {
    let cache = PageCache::new(1000);
    let (graph, tuples) = (cache.register(), cache.register());
    for i in 0..200u64 {
        let store = if i % 3 == 0 { tuples } else { graph };
        load(&cache, store, i % 40, 100 + (i as usize % 7) * 30);
        assert!(cache.used() <= 1000, "step {i}: used {}", cache.used());
        let (bytes, _) = resident(&[cache.stats(graph), cache.stats(tuples)]);
        assert_eq!(bytes, cache.used(), "step {i}");
    }
    let (g, t) = (cache.stats(graph), cache.stats(tuples));
    assert!(
        g.evictions > 0 && t.evictions > 0,
        "both stores gave pages up"
    );
    assert!(g.resident_pages > 0 && t.resident_pages > 0);
}

#[test]
fn a_page_larger_than_the_budget_is_held_alone() {
    let cache = PageCache::new(100);
    let store = cache.register();
    load(&cache, store, 1, 40);
    load(&cache, store, 2, 40);
    load(&cache, store, 3, 500);
    assert_eq!(cache.used(), 500);
    assert_eq!(cache.stats(store).resident_pages, 1);
    // A hit on it changes nothing; the next page displaces it.
    load(&cache, store, 3, 500);
    assert_eq!(cache.stats(store).page_ins, 3);
    load(&cache, store, 4, 40);
    assert_eq!(cache.used(), 40);
    assert_eq!(cache.stats(store).resident_pages, 1);
}

#[test]
fn release_returns_exactly_that_stores_bytes() {
    let cache = PageCache::new(10_000);
    let (a, b) = (cache.register(), cache.register());
    for k in 0..10 {
        load(&cache, a, k, 100);
        load(&cache, b, k, 250);
    }
    assert_eq!(cache.used(), 3500);
    assert_eq!(cache.release(a), 1000);
    assert_eq!(cache.used(), 2500);
    assert_eq!(cache.stats(a), CacheStats::default());
    assert_eq!(cache.stats(b).resident_bytes, 2500);
    // The freed slots are reused and `b` is untouched by it.
    let c = cache.register();
    load(&cache, c, 0, 100);
    assert_eq!(cache.used(), 2600);
    assert_eq!(cache.release(b), 2500);
    assert_eq!(cache.release(b), 0);
}

#[test]
fn a_failed_or_panicking_load_leaves_the_accounting_unchanged() {
    let cache = PageCache::new(1000);
    let store = cache.register();
    load(&cache, store, 1, 300);
    let before = (cache.used(), cache.stats(store));

    let failed = cache.get_or_load(store, 2, || Err::<Page, _>("disk on fire"));
    assert_eq!(failed.err(), Some("disk on fire"));
    assert_eq!((cache.used(), cache.stats(store)), before);

    let panicked = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        let _ = cache.get_or_load(store, 2, || -> Result<Page, ()> { panic!("bad checksum") });
    }));
    assert!(panicked.is_err());
    assert_eq!((cache.used(), cache.stats(store)), before);

    // No lock was held across the load, so the cache still works.
    load(&cache, store, 2, 300);
    assert_eq!(cache.used(), 600);
}

#[test]
fn serial_replay_counts_each_miss_exactly_once() {
    let replay = || {
        let cache = PageCache::new(2000);
        let stores = [cache.register(), cache.register()];
        let loads = AtomicUsize::new(0);
        let mut state = 7u64;
        for _ in 0..2000 {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let key = (state >> 33) % 30;
            let store = stores[(state >> 20) as usize % 2];
            cache
                .get_or_load(store, key, || {
                    loads.fetch_add(1, Ordering::Relaxed);
                    Ok::<_, ()>(page(100 + key as usize * 10))
                })
                .unwrap();
        }
        let stats = stores.map(|s| cache.stats(s));
        assert_eq!(
            stats.iter().map(|s| s.page_ins).sum::<u64>(),
            loads.load(Ordering::Relaxed) as u64,
            "a hit never loads, a miss loads once"
        );
        assert!(stats[0].evictions > 0, "the working set exceeds the budget");
        // Everything but the wall-clock decode time must repeat.
        stats.map(|s| CacheStats {
            decode_nanos: 0,
            ..s
        })
    };
    assert_eq!(replay(), replay(), "same accesses, same counters");
}

const BUDGET: usize = 4096;

/// Decoded size of a page, fixed by its key: even sizes below the
/// budget, except every 17th key, which is odd and larger than the
/// whole budget (keys 16 and 33 of the 48 the test draws) — so `used`
/// over budget must be exactly one such page's size.
fn size_of(key: u64) -> usize {
    if key % 17 == 16 {
        BUDGET + 1 + 2 * key as usize
    } else {
        64 + 2 * ((key as usize * 37) % 400)
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Random interleavings of graph-store and tuple-store loads from
    /// three threads, working set far above the budget.
    #[test]
    fn racing_loads_keep_the_bound_and_the_books(
        scripts in proptest::collection::vec(
            proptest::collection::vec((0usize..2, 0u64..48), 50..200),
            3,
        ),
    ) {
        let cache = PageCache::new(BUDGET);
        let stores = [cache.register(), cache.register()];
        let start = Barrier::new(scripts.len());
        std::thread::scope(|scope| {
            for script in &scripts {
                let (cache, start) = (&cache, &start);
                scope.spawn(move || {
                    start.wait();
                    for &(store, key) in script {
                        let got = cache
                            .get_or_load(stores[store], key, || Ok::<_, ()>(page(size_of(key))))
                            .unwrap();
                        assert_eq!(got.bytes(), size_of(key), "a key maps to its own page");
                        let used = cache.used();
                        assert!(
                            used <= BUDGET || [16, 33].iter().any(|&k| size_of(k) == used),
                            "used {used} is neither within budget nor one oversized page"
                        );
                    }
                });
            }
        });
        let stats = stores.map(|s| cache.stats(s));
        let (bytes, pages) = resident(&stats);
        prop_assert_eq!(bytes, cache.used());
        prop_assert!(bytes <= BUDGET || pages == 1, "{} bytes in {} pages", bytes, pages);
        let decoded: u64 = stats.iter().map(|s| s.page_ins).sum();
        let evicted: u64 = stats.iter().map(|s| s.evictions).sum();
        prop_assert!(decoded >= evicted + pages as u64, "every resident or evicted page was decoded");
        prop_assert_eq!(cache.release(stores[0]), stats[0].resident_bytes);
        prop_assert_eq!(cache.release(stores[1]), stats[1].resident_bytes);
        prop_assert_eq!(cache.used(), 0);
    }
}
