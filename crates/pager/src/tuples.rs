//! [`PagedTupleStore`]: the out-of-core [`TupleStore`] backend.
//!
//! The v3 DATA section (see `banks_storage::blocks`) keeps tuples in
//! fixed-span slot blocks behind a checksummed directory. Opening the
//! store reads the directory and the per-relation PK→slot lanes through
//! the same [`DataDirectory::open`] the resident store uses — which
//! checks every lane and block range against the section length — while
//! tuple blocks stay on disk until an answer rendering, `/node` browse,
//! or PK confirmation first touches them: one positioned read, a
//! checksum, and one validating pass that records where each slot
//! starts.
//!
//! A resident block is its encoded payload plus that slot index
//! (`banks_storage::TupleBlock`), ~5 KB at the default span; the
//! `Database` decodes only the slots it reads. Resident blocks live in
//! the [`PageCache`] the paged *graph* store of the same snapshot uses
//! too, so `--memory-budget` caps graph segments and tuple blocks
//! together and both age in one recency order.
//!
//! A `Database` read decodes the slot out of the block it fetched and
//! hands the caller the decoded tuple or back-reference list to own, so
//! nothing a reader holds borrows from a page the cache may evict.

use crate::blob::ByteSource;
use crate::budget::{Page, PageCache};
use crate::error::PagerError;
use banks_storage::blocks::checksum64;
use banks_storage::{DataDirectory, StorageError, TupleBlock, TupleStore, TupleStoreStats};
use banks_util::fault::{self, Site};
use std::sync::Arc;

/// Cache key of block `block` of relation `rel`.
fn cache_key(rel: u32, block: u32) -> u64 {
    (u64::from(rel) << 32) | u64::from(block)
}

/// A block-paged, budget-bounded tuple store over a v3 DATA section.
#[derive(Debug)]
pub struct PagedTupleStore {
    src: ByteSource,
    /// The directory and the resident PK lanes (12 bytes per live keyed
    /// tuple — the lane is the point-lookup index, it stays hot).
    dir: DataDirectory,
    cache: Arc<PageCache>,
    cache_id: u32,
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
        let dir = DataDirectory::open(src.len(), |offset, len| src.read_vec(offset, len))?;
        Ok(Arc::new(PagedTupleStore {
            src,
            dir,
            cache_id: cache.register(),
            cache,
        }))
    }

    /// Read, verify and index one block from the byte source.
    fn load_block(&self, rel: u32, block: u32) -> Result<TupleBlock, PagerError> {
        fault::maybe_fault(Site::DataBlockRead)?;
        let (payload, checksum) = self.read_block(rel, block)?;
        if checksum64(&payload) != checksum {
            return Err(PagerError::Malformed("block checksum mismatch".into()));
        }
        let (first, slots) = self.dir.block_slots(rel, block);
        let arity = self.dir.schemas[rel as usize].arity();
        Ok(TupleBlock::new(payload, first, slots, arity)?)
    }

    /// The encoded bytes of one block and its recorded checksum.
    fn read_block(&self, rel: u32, block: u32) -> Result<(Vec<u8>, u64), PagerError> {
        let meta = self.dir.relation(rel).blocks[block as usize];
        Ok((self.src.read_vec(meta.offset, meta.len)?, meta.checksum))
    }
}

impl TupleStore for PagedTupleStore {
    fn directory(&self) -> &DataDirectory {
        &self.dir
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

    fn raw_block(&self, rel: u32, block: u32) -> banks_storage::StorageResult<(Vec<u8>, u64)> {
        self.read_block(rel, block).map_err(|e| {
            StorageError::Corrupt(format!("tuple block {block} of relation #{rel}: {e}"))
        })
    }

    fn stats(&self) -> Option<TupleStoreStats> {
        let stats = self.cache.stats(self.cache_id);
        Some(TupleStoreStats {
            resident_bytes: stats.resident_bytes,
            budget_bytes: self.cache.budget(),
            block_count: self
                .dir
                .layout
                .relations
                .iter()
                .map(|r| r.blocks.len())
                .sum(),
            resident_blocks: stats.resident_pages,
            page_ins: stats.page_ins,
            evictions: stats.evictions,
            decode_nanos: stats.decode_nanos,
        })
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
    use banks_storage::{
        ColumnType, DataLayout, Database, RelationSchema, ResidentTupleStore, Rid, Value,
    };

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
        let layout_schema = store.directory().layout.schema_text.clone();
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
        let stats = store.stats().unwrap();
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
        let schema_text = store.directory().layout.schema_text.clone();
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
        let schema_text = store.directory().layout.schema_text.clone();
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
            let schema_text = store.directory().layout.schema_text.clone();
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
        let filled = first.stats().unwrap().resident_bytes;
        assert!(filled > 2 << 10, "first sweep fills the cache ({filled})");
        assert_eq!(cache.used(), filled);
        let evicted_before = first.stats().unwrap().evictions;
        sweep(&second);
        assert!(first.stats().unwrap().evictions > evicted_before);
        assert!(first.stats().unwrap().resident_bytes < filled);
        assert_eq!(
            cache.used(),
            first.stats().unwrap().resident_bytes + second.stats().unwrap().resident_bytes
        );
        assert!(cache.used() <= cache.budget());
        // A dropped store returns exactly its residency.
        let held = second.stats().unwrap().resident_bytes;
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

    /// `bytes` with relation 0's PK lane length (`lane`) or its first
    /// block's length set to `len`, the header checksum re-sealed.
    fn forge_len(bytes: &[u8], lane: bool, len: u64) -> Vec<u8> {
        use banks_storage::blocks::HEADER_PREFIX;
        let layout = DataLayout::parse(bytes).unwrap();
        // Relation 0's row follows the schema text, the link count, the
        // span and the relation count; its lane length follows its slot
        // and live counts, presence bitmap and lane offset, and its first
        // block's length follows the rest of the lane row, the block
        // count and that block's offset.
        let schema_len = layout.schema_text.len();
        let row = HEADER_PREFIX + 8 + schema_len + 8 + 4 + 4;
        let lane_len = row + 4 + 8 + layout.relations[0].presence.len() + 8;
        let at = if lane {
            lane_len
        } else {
            lane_len + 8 + 8 + 8 + 4 + 8
        };
        let mut out = bytes.to_vec();
        out[at..at + 8].copy_from_slice(&len.to_le_bytes());
        let sum_at = HEADER_PREFIX + DataLayout::header_span(bytes).unwrap() - 8;
        let sum = checksum64(&out[HEADER_PREFIX..sum_at]);
        out[sum_at..sum_at + 8].copy_from_slice(&sum.to_le_bytes());
        out
    }

    #[test]
    fn out_of_range_directory_lengths_are_refused_by_both_stores() {
        let db = sample_db(20);
        let bytes = encode_database_v3_with_span(&db, 8).unwrap();
        for (lane, len) in [(true, u64::MAX), (false, (1 << 63) - 1)] {
            let forged = forge_len(&bytes, lane, len);
            assert!(
                DataLayout::parse(&forged).is_ok(),
                "the header itself is sound"
            );
            match PagedTupleStore::open_mem(forged.clone().into(), PageCache::new(1 << 20)) {
                Err(PagerError::Malformed(m)) => assert!(m.contains("escapes"), "{m}"),
                other => panic!("paged open of length {len} must be refused: {other:?}"),
            }
            match ResidentTupleStore::open(&forged).map(drop) {
                Err(StorageError::Corrupt(m)) => assert!(m.contains("escapes"), "{m}"),
                other => panic!("resident open of length {len} must be refused: {other:?}"),
            }
        }
    }

    #[test]
    fn corrupt_block_payload_panics_at_decode() {
        let db = sample_db(20);
        let mut bytes = encode_database_v3_with_span(&db, 8).unwrap();
        let last = bytes.len() - 2;
        bytes[last] ^= 0x08;
        let store = PagedTupleStore::open_mem(bytes.into(), PageCache::new(1 << 20)).unwrap();
        let schema_text = store.directory().layout.schema_text.clone();
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
