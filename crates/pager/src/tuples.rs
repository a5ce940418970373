//! [`PagedTupleStore`]: the out-of-core [`TupleStore`] backend.
//!
//! The v3 DATA section (see `banks_storage::blocks`) keeps tuples in
//! fixed-span slot blocks behind a checksummed directory. Opening the
//! store reads and verifies only the directory and the per-relation
//! PK→slot lanes — O(blocks) work — while tuple blocks stay on disk
//! until an answer rendering, `/node` browse, or PK confirmation first
//! touches them: one positioned read, a checksum, and one validating
//! pass that records where each slot starts.
//!
//! A resident block is its encoded payload plus that slot index
//! (`banks_storage::TupleBlock`), ~5 KB at the default span; the lazy
//! `Database` decodes only the slots it reads. Resident blocks live in
//! the [`PageCache`] the paged *graph* store of the same snapshot uses
//! too, so `--memory-budget` caps graph segments and tuple blocks
//! together and both age in one recency order.
//!
//! A lazy `Database` read decodes the slot out of the block it fetched
//! and hands the caller the decoded tuple or back-reference list to own,
//! so nothing a reader holds borrows from a page the cache may evict.

use crate::blob::ByteSource;
use crate::budget::{Page, PageCache};
use crate::error::PagerError;
use banks_storage::blocks::{checksum64, lane_candidates, DataLayout};
use banks_storage::schema::schema_from_text;
use banks_storage::{StorageError, TupleBlock, TupleStore, TupleStoreStats};
use std::sync::Arc;

/// Cache key of block `block` of relation `rel`.
fn cache_key(rel: u32, block: u32) -> u64 {
    (u64::from(rel) << 32) | u64::from(block)
}

/// A block-paged, budget-bounded tuple store over a v3 DATA section.
#[derive(Debug)]
pub struct PagedTupleStore {
    src: ByteSource,
    layout: DataLayout,
    /// Resident PK lanes, one per relation (12 bytes per live keyed
    /// tuple — the lane is the point-lookup index, it stays hot).
    lanes: Vec<Arc<[u8]>>,
    /// Tuple arity per relation, from the recorded schema.
    arities: Vec<usize>,
    cache: Arc<PageCache>,
    cache_id: u32,
}

fn malformed(e: StorageError) -> PagerError {
    PagerError::Malformed(e.to_string())
}

impl PagedTupleStore {
    /// Open a v3 DATA section living at `[base, base + len)` of `file`,
    /// keeping resident blocks in `cache`.
    pub fn open_file(
        file: Arc<std::fs::File>,
        base: u64,
        len: u64,
        cache: Arc<PageCache>,
    ) -> Result<Arc<PagedTupleStore>, PagerError> {
        PagedTupleStore::open_source(ByteSource::File { file, base, len }, cache)
    }

    /// Open an in-memory v3 DATA section.
    #[cfg(test)]
    pub(crate) fn open_mem(
        bytes: Arc<[u8]>,
        cache: Arc<PageCache>,
    ) -> Result<Arc<PagedTupleStore>, PagerError> {
        PagedTupleStore::open_source(ByteSource::Mem(bytes), cache)
    }

    /// Open a section from any [`ByteSource`]: read and verify the
    /// checksummed directory and the PK lanes (typed errors), leave
    /// every tuple block on disk.
    pub(crate) fn open_source(
        src: ByteSource,
        cache: Arc<PageCache>,
    ) -> Result<Arc<PagedTupleStore>, PagerError> {
        let mut prefix = [0u8; banks_storage::blocks::HEADER_PREFIX];
        if src.len() < prefix.len() as u64 {
            return Err(PagerError::Truncated);
        }
        src.read_at(0, &mut prefix)?;
        let span = DataLayout::header_span(&prefix).map_err(malformed)?;
        if src.len() < (prefix.len() + span) as u64 {
            return Err(PagerError::Truncated);
        }
        let mut header = vec![0u8; prefix.len() + span];
        src.read_at(0, &mut header)?;
        let layout = DataLayout::parse(&header).map_err(malformed)?;
        let arities: Vec<usize> = {
            let db = schema_from_text(&layout.schema_text).map_err(malformed)?;
            db.relations().map(|t| t.schema().arity()).collect()
        };
        if arities.len() != layout.relations.len() {
            return Err(PagerError::Malformed(format!(
                "schema declares {} relations, directory {}",
                arities.len(),
                layout.relations.len()
            )));
        }
        let mut lanes = Vec::with_capacity(layout.relations.len());
        for (i, rel) in layout.relations.iter().enumerate() {
            if rel.pk_lane.offset + rel.pk_lane.len > src.len() {
                return Err(PagerError::Truncated);
            }
            let mut lane = vec![0u8; rel.pk_lane.len as usize];
            src.read_at(rel.pk_lane.offset, &mut lane)?;
            if checksum64(&lane) != rel.pk_lane.checksum {
                return Err(PagerError::Malformed(format!(
                    "pk lane checksum mismatch in relation #{i}"
                )));
            }
            lanes.push(lane.into());
        }
        Ok(Arc::new(PagedTupleStore {
            src,
            layout,
            lanes,
            arities,
            cache_id: cache.register(),
            cache,
        }))
    }

    /// The parsed directory (replica bootstrap and `snapshot inspect`
    /// read per-relation live counts straight from it).
    pub fn layout(&self) -> &DataLayout {
        &self.layout
    }

    /// Read, verify and index one block from the byte source.
    fn load_block(&self, rel: u32, block: u32) -> Result<TupleBlock, PagerError> {
        let layout = &self.layout.relations[rel as usize];
        let meta = layout.blocks[block as usize];
        banks_util::fault::maybe_fault("data.block.read")?;
        let mut payload = vec![0u8; meta.len as usize];
        self.src.read_at(meta.offset, &mut payload)?;
        if checksum64(&payload) != meta.checksum {
            return Err(PagerError::Malformed("block checksum mismatch".into()));
        }
        let span = self.layout.block_span;
        let first = block * span;
        let slots = layout.slot_count.min(first.saturating_add(span)) - first;
        TupleBlock::new(payload, first, slots, self.arities[rel as usize]).map_err(malformed)
    }
}

impl TupleStore for PagedTupleStore {
    fn relation_count(&self) -> usize {
        self.layout.relations.len()
    }

    fn block_span(&self) -> u32 {
        self.layout.block_span
    }

    fn slot_count(&self, rel: u32) -> u32 {
        self.layout.relations[rel as usize].slot_count
    }

    fn live_count(&self, rel: u32) -> usize {
        self.layout.relations[rel as usize].live_count as usize
    }

    fn link_count(&self) -> u64 {
        self.layout.link_count
    }

    fn is_live(&self, rel: u32, slot: u32) -> bool {
        self.layout.relations[rel as usize].is_live(slot)
    }

    /// Fetch (paging in if needed) the resident block `block` of
    /// relation `rel`.
    ///
    /// # Panics
    ///
    /// On I/O failure or a payload checksum/structure failure — the
    /// tuple accessors have no error channel (same contract as the
    /// paged graph store). Directory corruption is caught, typed, at
    /// open instead.
    fn block(&self, rel: u32, block: u32) -> Arc<TupleBlock> {
        let page = self
            .cache
            .get_or_load(self.cache_id, cache_key(rel, block), || {
                self.load_block(rel, block)
                    .map(|b| Page::Block(Arc::new(b)))
            })
            .unwrap_or_else(|e| panic!("tuple block {block} of relation #{rel}: {e}"));
        match page {
            Page::Block(block) => block,
            Page::Segment(_) => unreachable!("cache ids are unique per store"),
        }
    }

    fn pk_candidates(&self, rel: u32, hash: u64) -> Vec<u32> {
        lane_candidates(&self.lanes[rel as usize], hash)
    }

    fn raw_block(&self, rel: u32, block: u32) -> banks_storage::StorageResult<(Vec<u8>, u64)> {
        let meta = self.layout.relations[rel as usize].blocks[block as usize];
        let mut payload = vec![0u8; meta.len as usize];
        self.src.read_at(meta.offset, &mut payload).map_err(|e| {
            StorageError::Corrupt(format!("tuple block {block} of relation #{rel}: {e}"))
        })?;
        Ok((payload, meta.checksum))
    }

    fn raw_pk_lane(&self, rel: u32) -> banks_storage::StorageResult<(Vec<u8>, u64, u64)> {
        let lane = &self.layout.relations[rel as usize].pk_lane;
        Ok((
            self.lanes[rel as usize].to_vec(),
            lane.checksum,
            lane.entries,
        ))
    }

    fn stats(&self) -> TupleStoreStats {
        let stats = self.cache.stats(self.cache_id);
        TupleStoreStats {
            resident_bytes: stats.resident_bytes,
            budget_bytes: self.cache.budget(),
            block_count: self.layout.relations.iter().map(|r| r.blocks.len()).sum(),
            resident_blocks: stats.resident_pages,
            page_ins: stats.page_ins,
            evictions: stats.evictions,
            decode_nanos: stats.decode_nanos,
        }
    }
}

impl Drop for PagedTupleStore {
    fn drop(&mut self) {
        // A dropped epoch's blocks must not starve the stores that
        // replaced it.
        self.cache.release(self.cache_id);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use banks_storage::blocks::encode_database_v3_with_span;
    use banks_storage::{ColumnType, Database, RelationSchema, Rid, Value};

    fn sample_db(rows: i64) -> Database {
        let mut db = Database::new("paged-tuples");
        db.create_relation(
            RelationSchema::builder("Author")
                .column("Id", ColumnType::Text)
                .column("Name", ColumnType::Text)
                .primary_key(&["Id"])
                .build()
                .unwrap(),
        )
        .unwrap();
        db.create_relation(
            RelationSchema::builder("Paper")
                .column("Id", ColumnType::Text)
                .column("Title", ColumnType::Text)
                .nullable_column("Year", ColumnType::Int)
                .primary_key(&["Id"])
                .build()
                .unwrap(),
        )
        .unwrap();
        db.create_relation(
            RelationSchema::builder("Writes")
                .column("A", ColumnType::Text)
                .column("P", ColumnType::Text)
                .primary_key(&["A", "P"])
                .foreign_key(&["A"], "Author")
                .foreign_key(&["P"], "Paper")
                .build()
                .unwrap(),
        )
        .unwrap();
        for i in 0..rows {
            db.insert(
                "Author",
                vec![
                    Value::text(format!("a{i}")),
                    Value::text(format!("Author {i}")),
                ],
            )
            .unwrap();
            db.insert(
                "Paper",
                vec![
                    Value::text(format!("p{i}")),
                    Value::text(format!("A Treatise Numbered {i}")),
                    Value::Int(1980 + (i % 40)),
                ],
            )
            .unwrap();
            db.insert(
                "Writes",
                vec![
                    Value::text(format!("a{i}")),
                    Value::text(format!("p{}", i / 2)),
                ],
            )
            .unwrap();
        }
        // Tombstones.
        let w = db
            .relation("Writes")
            .unwrap()
            .lookup_pk(&[Value::text("a9"), Value::text("p4")])
            .unwrap();
        db.delete(w).unwrap();
        db
    }

    fn assert_dbs_equal(a: &Database, b: &Database) {
        assert_eq!(a.total_tuples(), b.total_tuples());
        assert_eq!(a.link_count(), b.link_count());
        for (ta, tb) in a.relations().zip(b.relations()) {
            assert_eq!(ta.slot_count(), tb.slot_count());
            assert_eq!(ta.len(), tb.len());
            for slot in 0..ta.slot_count() as u32 {
                assert_eq!(
                    ta.get(slot),
                    tb.get(slot),
                    "slot {slot} of {}",
                    ta.schema().name
                );
                let rid = Rid::new(ta.id(), slot);
                assert_eq!(a.referencing(rid).to_vec(), b.referencing(rid).to_vec());
            }
        }
    }

    #[test]
    fn lazy_database_matches_eager_under_tiny_budget() {
        let db = sample_db(60);
        let bytes = encode_database_v3_with_span(&db, 8).unwrap();
        // ~1 KB budget with 8-slot blocks: constant eviction.
        let store = PagedTupleStore::open_mem(bytes.into(), PageCache::new(1 << 10)).unwrap();
        let layout_schema = store.layout().schema_text.clone();
        let lazy = Database::open_lazy(&layout_schema, store.clone()).unwrap();
        assert_eq!(lazy.name(), db.name());
        assert_dbs_equal(&db, &lazy);
        // PK lookups agree (lane → candidate → confirm path).
        for probe in ["a0", "a33", "a59", "missing"] {
            assert_eq!(
                db.relation("Author")
                    .unwrap()
                    .lookup_pk(&[Value::text(probe)]),
                lazy.relation("Author")
                    .unwrap()
                    .lookup_pk(&[Value::text(probe)]),
            );
        }
        let stats = store.stats();
        assert!(stats.page_ins > 0);
        assert!(stats.evictions > 0, "tiny budget must evict");
        assert!(
            stats.resident_bytes <= stats.budget_bytes || stats.resident_blocks == 1,
            "resident {} past budget {}",
            stats.resident_bytes,
            stats.budget_bytes
        );
    }

    #[test]
    fn overlay_mutations_and_cow_reencode_round_trip() {
        let mut eager = sample_db(40);
        let bytes = encode_database_v3_with_span(&eager, 8).unwrap();
        let store =
            PagedTupleStore::open_mem(bytes.clone().into(), PageCache::new(1 << 20)).unwrap();
        let schema_text = store.layout().schema_text.clone();
        let mut lazy = Database::open_lazy(&schema_text, store).unwrap();

        // Apply the same epoch to both: delete, update, insert.
        for db in [&mut eager, &mut lazy] {
            let w = db
                .relation("Writes")
                .unwrap()
                .lookup_pk(&[Value::text("a3"), Value::text("p1")])
                .unwrap();
            db.delete(w).unwrap();
            let p = db
                .relation("Paper")
                .unwrap()
                .lookup_pk(&[Value::text("p7")])
                .unwrap();
            db.update(p, 2, Value::Int(2002)).unwrap();
            db.insert(
                "Author",
                vec![Value::text("fresh"), Value::text("Fresh Author")],
            )
            .unwrap();
            db.insert("Writes", vec![Value::text("fresh"), Value::text("p7")])
                .unwrap();
        }
        assert_dbs_equal(&eager, &lazy);

        // COW re-encode: only touched blocks rewrite, bytes must decode
        // back to the same database.
        let reencoded = encode_database_v3_with_span(&lazy, 8).unwrap();
        let store2 = PagedTupleStore::open_mem(reencoded.into(), PageCache::new(1 << 20)).unwrap();
        let lazy2 = Database::open_lazy(&schema_text, store2).unwrap();
        assert_dbs_equal(&eager, &lazy2);
    }

    #[test]
    fn cow_reuses_untouched_block_bytes() {
        let db = sample_db(40);
        let bytes = encode_database_v3_with_span(&db, 8).unwrap();
        let store =
            PagedTupleStore::open_mem(bytes.clone().into(), PageCache::new(1 << 20)).unwrap();
        let schema_text = store.layout().schema_text.clone();
        let lazy = Database::open_lazy(&schema_text, store).unwrap();
        // No mutations → byte-identical re-encode, zero block decodes.
        let reencoded = encode_database_v3_with_span(&lazy, 8).unwrap();
        assert_eq!(bytes, reencoded);
        assert_eq!(lazy.tuple_store_stats().unwrap().page_ins, 0);
    }

    #[test]
    fn budget_is_shared_between_stores() {
        let db = sample_db(60);
        let bytes = encode_database_v3_with_span(&db, 8).unwrap();
        let cache = PageCache::new(4 << 10);
        let sweep = |store: &Arc<PagedTupleStore>| {
            let schema_text = store.layout().schema_text.clone();
            let lazy = Database::open_lazy(&schema_text, store.clone()).unwrap();
            for table in lazy.relations() {
                for slot in 0..table.slot_count() as u32 {
                    let _ = table.get(slot);
                }
            }
        };
        // Two stores, one cache: the second store's sweep can only make
        // room by evicting the first store's blocks.
        let first = PagedTupleStore::open_mem(bytes.clone().into(), Arc::clone(&cache)).unwrap();
        let second = PagedTupleStore::open_mem(bytes.into(), Arc::clone(&cache)).unwrap();
        sweep(&first);
        let filled = first.stats().resident_bytes;
        assert!(filled > 2 << 10, "first sweep fills the cache ({filled})");
        assert_eq!(cache.used(), filled);
        let evicted_before = first.stats().evictions;
        sweep(&second);
        assert!(first.stats().evictions > evicted_before);
        assert!(first.stats().resident_bytes < filled);
        assert_eq!(
            cache.used(),
            first.stats().resident_bytes + second.stats().resident_bytes
        );
        assert!(cache.used() <= cache.budget());
        // A dropped store returns exactly its residency.
        let held = second.stats().resident_bytes;
        let used = cache.used();
        drop(second);
        assert_eq!(cache.used(), used - held);
    }

    #[test]
    fn corrupt_directory_and_lane_are_typed_errors() {
        let db = sample_db(20);
        let bytes = encode_database_v3_with_span(&db, 8).unwrap();
        let budget = || PageCache::new(1 << 20);

        let mut bad = bytes.clone();
        bad[0] ^= 0xff;
        assert!(matches!(
            PagedTupleStore::open_mem(bad.into(), budget()),
            Err(PagerError::Malformed(_))
        ));

        let mut torn = bytes.clone();
        torn[20] ^= 0x01;
        assert!(matches!(
            PagedTupleStore::open_mem(torn.into(), budget()),
            Err(PagerError::Malformed(_))
        ));

        assert!(matches!(
            PagedTupleStore::open_mem(bytes[..8].to_vec().into(), budget()),
            Err(PagerError::Truncated)
        ));
    }

    #[test]
    fn corrupt_block_payload_panics_at_decode() {
        let db = sample_db(20);
        let mut bytes = encode_database_v3_with_span(&db, 8).unwrap();
        let last = bytes.len() - 2;
        bytes[last] ^= 0x08;
        let store = PagedTupleStore::open_mem(bytes.into(), PageCache::new(1 << 20)).unwrap();
        let schema_text = store.layout().schema_text.clone();
        let lazy = Database::open_lazy(&schema_text, store).unwrap();
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            for table in lazy.relations() {
                for slot in 0..table.slot_count() as u32 {
                    let _ = table.get(slot);
                }
            }
        }));
        assert!(result.is_err(), "corrupt block must fail loudly");
    }
}
