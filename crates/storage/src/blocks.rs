//! The v3 DATA section: block-paged tuple storage.
//!
//! PR 7 took the graph and postings out of core; this module does the
//! same for the tuples themselves. The DATA payload is reframed per
//! relation and per fixed-span **slot block**, behind a self-describing
//! checksummed header, so a paged open can verify the directory only
//! (O(blocks)) and page tuple blocks in lazily on first touch:
//!
//! ```text
//! ┌──────────────────────────────────────────────────────────────┐
//! │ magic "BNKSDT03"   u64 header_len                            │
//! │ header payload:                                              │
//! │   schema text · link_count · block_span · relation_count     │
//! │   per relation:                                              │
//! │     slot_count · live_count · presence bitmap                │
//! │     pk lane   (offset, len, checksum, entries)               │
//! │     per block (offset, len, checksum)                        │
//! │ u64 header checksum                                          │
//! ├──────────────────────────────────────────────────────────────┤
//! │ rel 0 pk lane │ rel 0 block 0 │ rel 0 block 1 │ …            │
//! │ rel 1 pk lane │ …                                            │
//! └──────────────────────────────────────────────────────────────┘
//! ```
//!
//! * **Blocks** hold `block_span` consecutive slots: a presence byte per
//!   slot, the tuple's values (ints zigzag-varint packed, text
//!   varint-length prefixed), and a *back-reference sublane* — the
//!   reverse-FK list of each live tuple — so browsing backwards needs
//!   only the one block the target lives in.
//! * The **PK→slot lane** is a separately decodable sorted array of
//!   `(key hash, slot)` pairs, binary-searchable without touching any
//!   block; candidates are confirmed against the (paged-in) tuple
//!   exactly like the in-memory index.
//! * The **presence bitmap** answers liveness questions (graph/catalog
//!   verification, `total_tuples`) with zero block decodes.
//!
//! [`TupleStore`] is where a `Database` opened over a section (see
//! [`crate::Database::open_lazy`]) gets its blocks from. Both stores
//! open the directory and the PK lanes through one function,
//! [`DataDirectory::open`], which checks every lane and block range
//! against the section length. [`ResidentTupleStore`] holds every block
//! resident — the in-RAM bundle load — and verifies the whole section at
//! open; `banks-pager`'s `PagedTupleStore` pages blocks from disk under
//! a memory budget. A resident [`TupleBlock`] is the block's encoded
//! payload plus the offset of each slot in it, validated once when it is
//! indexed; a read decodes only the slot it asks for and hands the
//! caller the decoded tuple or reference list to own, so nothing a
//! reader holds depends on the block staying resident. A database built
//! by inserts has no store: its appended slots encode directly
//! ([`encode_database_v3`]).

use crate::catalog::{BackRef, Database};
use crate::error::{StorageError, StorageResult};
use crate::schema::{schema_from_text, schema_to_text, RelationSchema};
use crate::table::Table;
use crate::tuple::{RelationId, Rid, Tuple};
use crate::value::Value;
use banks_util::fxhash::FxHasher;
use std::borrow::Cow;
use std::hash::{Hash, Hasher};
use std::sync::Arc;

/// Magic prefix of a v3 DATA section.
pub(crate) const DATA_V3_MAGIC: &[u8; 8] = b"BNKSDT03";

/// Slots per tuple block. A DBLP-shaped slot encodes to ~37 bytes, so a
/// resident 128-slot block is ~5 KB (payload plus slot index) — one
/// positioned read, and small enough that rendering an answer set (a few
/// dozen tuples scattered over as many blocks) pages in a few hundred
/// kilobytes rather than sweeping an 8 MiB `--memory-budget`, as
/// 4096-slot blocks did. Readers take the span from the section header,
/// so sections written at another span stay readable.
pub const BLOCK_SPAN: u32 = 128;

/// Bytes before the header payload: magic + `u64` payload length.
pub const HEADER_PREFIX: usize = 16;

/// Refuse implausible length prefixes instead of attempting the
/// allocation.
const MAX_DECODE_LEN: u64 = 1 << 32;

// ---------------------------------------------------------------------
// Varints + checksum
// ---------------------------------------------------------------------

/// Append `value` as an unsigned LEB128 varint.
#[inline]
pub(crate) fn write_varint(out: &mut Vec<u8>, mut value: u64) {
    loop {
        let byte = (value & 0x7f) as u8;
        value >>= 7;
        if value == 0 {
            out.push(byte);
            return;
        }
        out.push(byte | 0x80);
    }
}

/// Read an unsigned LEB128 varint, rejecting truncation and overflow.
#[inline]
pub(crate) fn read_varint(bytes: &[u8], pos: &mut usize) -> Option<u64> {
    let mut value = 0u64;
    let mut shift = 0u32;
    loop {
        let byte = *bytes.get(*pos)?;
        *pos += 1;
        if shift == 63 && byte > 1 {
            return None;
        }
        value |= u64::from(byte & 0x7f) << shift;
        if byte & 0x80 == 0 {
            return Some(value);
        }
        shift += 7;
        if shift > 63 {
            return None;
        }
    }
}

#[inline]
fn zigzag(v: i64) -> u64 {
    ((v << 1) ^ (v >> 63)) as u64
}

#[inline]
fn unzigzag(v: u64) -> i64 {
    ((v >> 1) as i64) ^ -((v & 1) as i64)
}

/// Content checksum of a block, lane, or header payload.
pub fn checksum64(bytes: &[u8]) -> u64 {
    let mut h = FxHasher::default();
    h.write(bytes);
    h.write_usize(bytes.len());
    h.finish()
}

fn corrupt(msg: impl Into<String>) -> StorageError {
    StorageError::Corrupt(msg.into())
}

// ---------------------------------------------------------------------
// Resident blocks + the TupleStore trait
// ---------------------------------------------------------------------

/// Byte offset of each slot's presence byte within a block payload.
#[derive(Debug)]
enum SlotIndex {
    U16(Box<[u16]>),
    U32(Box<[u32]>),
}

impl SlotIndex {
    fn new(offsets: Vec<u32>, payload_len: usize) -> SlotIndex {
        if payload_len <= usize::from(u16::MAX) {
            SlotIndex::U16(offsets.iter().map(|&o| o as u16).collect())
        } else {
            SlotIndex::U32(offsets.into_boxed_slice())
        }
    }

    fn len(&self) -> usize {
        match self {
            SlotIndex::U16(o) => o.len(),
            SlotIndex::U32(o) => o.len(),
        }
    }

    fn get(&self, local: usize) -> usize {
        match self {
            SlotIndex::U16(o) => usize::from(o[local]),
            SlotIndex::U32(o) => o[local] as usize,
        }
    }

    fn bytes(&self) -> usize {
        match self {
            SlotIndex::U16(o) => o.len() * std::mem::size_of::<u16>(),
            SlotIndex::U32(o) => o.len() * std::mem::size_of::<u32>(),
        }
    }
}

/// One resident tuple block: the checksum-verified encoded payload of
/// `block_span` consecutive slots of a relation, plus the offset of each
/// slot within it. Nothing is decoded while the block sits in the cache:
/// a read through a lazy table decodes the one slot it asks for, so a
/// block costs its encoded size (~5 KB at [`BLOCK_SPAN`] on DBLP-shaped
/// data) rather than the ~24 KB of every tuple and back-reference list
/// decoded.
#[derive(Debug)]
pub struct TupleBlock {
    first_slot: u32,
    arity: usize,
    payload: Box<[u8]>,
    index: SlotIndex,
}

impl TupleBlock {
    /// Index `payload`, the encoded slots `[first_slot, first_slot +
    /// slots)` of a relation with the given tuple arity. Every presence
    /// byte, value and back-reference of the payload is validated here,
    /// so reading a slot later cannot fail.
    pub fn new(
        payload: Vec<u8>,
        first_slot: u32,
        slots: u32,
        arity: usize,
    ) -> StorageResult<TupleBlock> {
        TupleBlock::visiting(payload, first_slot, slots, arity, |_, _, _| Ok(()))
    }

    /// [`TupleBlock::new`], handing each slot to `visit` as it is
    /// validated: its absolute number, its values (`None` for a
    /// tombstone) and its back-references. An error from `visit` refuses
    /// the block.
    fn visiting(
        payload: Vec<u8>,
        first_slot: u32,
        slots: u32,
        arity: usize,
        visit: impl FnMut(u32, Option<&[EncodedValue<'_>]>, &[BackRef]) -> StorageResult<()>,
    ) -> StorageResult<TupleBlock> {
        let index = index_slots(&payload, first_slot, slots, arity, visit)?;
        Ok(TupleBlock {
            first_slot,
            arity,
            payload: payload.into_boxed_slice(),
            index,
        })
    }

    /// Resident heap footprint: the payload plus the slot index — what
    /// the memory budget counts.
    pub fn bytes(&self) -> usize {
        self.payload.len() + self.index.bytes()
    }

    /// Payload offset of absolute `slot`, if it is in this block.
    fn offset(&self, slot: u32) -> Option<usize> {
        let local = slot.checked_sub(self.first_slot)? as usize;
        (local < self.index.len()).then(|| self.index.get(local))
    }

    /// Decode the tuple at absolute `slot`, if live and in range.
    pub(crate) fn tuple(&self, slot: u32) -> Option<Tuple> {
        decode_tuple_at(&self.payload, self.offset(slot)?, self.arity)
    }

    /// Decode the reverse references of absolute `slot` (empty for a
    /// tombstone or a slot out of range).
    pub(crate) fn refs(&self, slot: u32) -> Vec<BackRef> {
        self.offset(slot)
            .map(|at| decode_refs_at(&self.payload, at, self.arity))
            .unwrap_or_default()
    }
}

/// Cache counters of a paging [`TupleStore`] (a store that holds every
/// block resident reports none, see [`TupleStore::stats`]).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct TupleStoreStats {
    /// Resident tuple-block bytes (payloads plus slot indexes).
    pub resident_bytes: usize,
    /// Memory budget shared with the graph store (0 = unbounded).
    pub budget_bytes: usize,
    /// Total blocks across all relations.
    pub block_count: usize,
    /// Blocks currently resident.
    pub resident_blocks: usize,
    /// Blocks paged into residency since open.
    pub page_ins: u64,
    /// Blocks evicted under budget pressure since open.
    pub evictions: u64,
    /// Nanoseconds spent paging blocks in: the read, the checksum and
    /// the validating index pass (slots decode later, when read).
    pub decode_nanos: u64,
}

/// Where the tuples of a [`Database`] opened over a v3 DATA section live:
/// every block resident ([`ResidentTupleStore`]) or paged from disk.
///
/// `block` has no error channel (callers are infallible accessors such
/// as [`crate::Table::get`]). The resident store verifies every block at
/// open; a paged store panics on an I/O or checksum failure at page-in,
/// exactly like the paged graph store. Directory-level corruption is
/// caught (typed) at open by both.
pub trait TupleStore: std::fmt::Debug + Send + Sync {
    /// The verified directory and PK lanes.
    fn directory(&self) -> &DataDirectory;
    /// The resident block `block` of relation `rel`
    /// (`block = slot / block_span()`).
    fn block(&self, rel: u32, block: u32) -> Arc<TupleBlock>;
    /// Encoded bytes + recorded checksum of a block — the COW snapshot
    /// writer's clean-block fast path.
    fn raw_block(&self, rel: u32, block: u32) -> StorageResult<(Vec<u8>, u64)>;
    /// Cache counters of a paging store; `None` for a store that holds
    /// every block resident, so an in-RAM server reports no paging.
    fn stats(&self) -> Option<TupleStoreStats>;
    /// Slots per block this store was encoded with.
    fn block_span(&self) -> u32 {
        self.directory().layout.block_span
    }
}

/// A v3 DATA section's parsed header, its relation schemas and its
/// checksum-verified PK lanes: what a [`TupleStore`] holds before it
/// reads a single block.
#[derive(Debug)]
pub struct DataDirectory {
    /// The parsed header.
    pub layout: DataLayout,
    /// Relation schemas in catalog order, from the recorded schema text.
    pub schemas: Vec<RelationSchema>,
    /// The encoded PK lane of each relation.
    lanes: Vec<Box<[u8]>>,
}

impl DataDirectory {
    /// Open the directory of a `len`-byte section. `read(offset, n)`
    /// returns the `n` bytes at `offset` of the section, refusing a range
    /// outside it before allocating. Reads and verifies the header,
    /// checks that every PK lane and block lies inside the section, and
    /// reads and checksums every lane; no block is read. A range that
    /// escapes the section is [`StorageError::Corrupt`].
    pub fn open<E: From<StorageError>>(
        len: u64,
        mut read: impl FnMut(u64, u64) -> Result<Vec<u8>, E>,
    ) -> Result<DataDirectory, E> {
        let span = DataLayout::header_span(&read(0, HEADER_PREFIX as u64)?)?;
        let layout = DataLayout::parse(&read(0, (HEADER_PREFIX + span) as u64)?)?;
        let catalog = schema_from_text(&layout.schema_text)?;
        if catalog.relation_count() != layout.relations.len() {
            return Err(corrupt(format!(
                "schema declares {} relations but the v3 directory carries {}",
                catalog.relation_count(),
                layout.relations.len()
            ))
            .into());
        }
        let escapes = |what: String, offset: u64, n: u64| -> Option<StorageError> {
            match offset.checked_add(n) {
                Some(end) if end <= len => None,
                _ => Some(corrupt(format!(
                    "{what} at {offset}..+{n} escapes the {len}-byte v3 DATA section"
                ))),
            }
        };
        let mut lanes = Vec::with_capacity(layout.relations.len());
        for (i, rel) in layout.relations.iter().enumerate() {
            let lane = rel.pk_lane;
            let bad_range = escapes(format!("pk lane of relation #{i}"), lane.offset, lane.len)
                .or_else(|| {
                    (rel.blocks.iter().enumerate()).find_map(|(b, blk)| {
                        escapes(
                            format!("tuple block {b} of relation #{i}"),
                            blk.offset,
                            blk.len,
                        )
                    })
                });
            if let Some(e) = bad_range {
                return Err(e.into());
            }
            let bytes = read(lane.offset, lane.len)?;
            if checksum64(&bytes) != lane.checksum {
                return Err(corrupt(format!("pk lane checksum mismatch in relation #{i}")).into());
            }
            lanes.push(bytes.into_boxed_slice());
        }
        let schemas = catalog.relations().map(|t| t.schema().clone()).collect();
        Ok(DataDirectory {
            layout,
            schemas,
            lanes,
        })
    }

    /// Directory row of relation `rel`.
    pub fn relation(&self, rel: u32) -> &RelationLayout {
        &self.layout.relations[rel as usize]
    }

    /// The encoded PK lane of relation `rel`.
    pub fn pk_lane(&self, rel: u32) -> &[u8] {
        &self.lanes[rel as usize]
    }

    /// The first slot of block `block` of relation `rel` and how many
    /// slots the block holds.
    pub fn block_slots(&self, rel: u32, block: u32) -> (u32, u32) {
        let span = self.layout.block_span;
        let first = block * span;
        let end = self
            .relation(rel)
            .slot_count
            .min(first.saturating_add(span));
        (first, end - first)
    }
}

/// The [`TupleStore`] of an in-RAM bundle load: every block of a v3 DATA
/// section indexed and held resident — the tuple twin of the graph's
/// resident segment store. No tuple is decoded up front; a read decodes
/// the one slot it asks for, as through a paged store.
///
/// [`ResidentTupleStore::open`] verifies the whole section, so a bad
/// section is [`StorageError::Corrupt`] at open and reads never fail.
#[derive(Debug)]
pub struct ResidentTupleStore {
    dir: DataDirectory,
    /// `blocks[rel][block]`.
    blocks: Vec<Vec<Arc<TupleBlock>>>,
}

impl ResidentTupleStore {
    /// Open a v3 DATA section held in memory. Every block is copied out
    /// and indexed, and the section must pass every check a full decode
    /// of it would make:
    ///
    /// * every lane and block checksum, and every block's encoding;
    /// * the presence bitmap agrees with each block, and each relation's
    ///   live count and the total link count match the directory;
    /// * no two live tuples share a primary key, and each PK lane is
    ///   exactly the lane of its relation's live tuples;
    /// * every back-reference comes from a live tuple, through a foreign
    ///   key of that tuple's relation that references the target's.
    pub fn open(section: &[u8]) -> StorageResult<Arc<ResidentTupleStore>> {
        let range = |offset: u64, n: u64| -> StorageResult<&[u8]> {
            let end = offset.checked_add(n).and_then(|e| usize::try_from(e).ok());
            let start = usize::try_from(offset).ok();
            start
                .zip(end)
                .and_then(|(a, b)| section.get(a..b))
                .ok_or_else(|| corrupt(format!("{offset}..+{n} extends past the v3 DATA section")))
        };
        let dir = DataDirectory::open(section.len() as u64, |offset, n| {
            range(offset, n).map(<[u8]>::to_vec)
        })?;
        // The relation each foreign key references (resolved when the
        // schema text was parsed, so every name is present).
        let fk_targets: Vec<Vec<u32>> = (dir.schemas.iter())
            .map(|s| {
                (s.foreign_keys.iter())
                    .map(|fk| {
                        let target = dir.schemas.iter().position(|t| t.name == fk.ref_relation);
                        target.expect("schema text resolves every foreign key") as u32
                    })
                    .collect()
            })
            .collect();
        let mut links = 0u64;
        let mut blocks = Vec::with_capacity(dir.layout.relations.len());
        for (r, rel) in dir.layout.relations.iter().enumerate() {
            let r = r as u32;
            let schema = &dir.schemas[r as usize];
            // The primary-key hash of each live slot, checked against the
            // PK lane once every block is read.
            let mut hashes = vec![0u64; rel.slot_count as usize];
            let mut live = 0u64;
            let mut rel_blocks = Vec::with_capacity(rel.blocks.len());
            for (b, meta) in rel.blocks.iter().enumerate() {
                let payload = range(meta.offset, meta.len)?;
                if checksum64(payload) != meta.checksum {
                    return Err(corrupt(format!(
                        "tuple block {b} checksum mismatch in relation #{r}"
                    )));
                }
                let (first, slots) = dir.block_slots(r, b as u32);
                let visit = |slot: u32, values: Option<&[EncodedValue<'_>]>, refs: &[BackRef]| {
                    if values.is_some() != rel.is_live(slot) {
                        return Err(corrupt(format!(
                            "presence bitmap disagrees with block {b} of relation #{r}"
                        )));
                    }
                    for br in refs {
                        let source = dir.layout.relations.get(br.from.relation.index());
                        let fk = (fk_targets.get(br.from.relation.index()))
                            .and_then(|fks| fks.get(br.fk_index));
                        let fault = if !source.is_some_and(|s| s.is_live(br.from.slot)) {
                            "whose source is not a live tuple"
                        } else if fk != Some(&r) {
                            "through no foreign key into its target's relation"
                        } else {
                            continue;
                        };
                        return Err(corrupt(format!(
                            "back-reference to {} from {} (foreign key #{}) {fault}",
                            Rid::new(RelationId(r), slot),
                            br.from,
                            br.fk_index
                        )));
                    }
                    links += refs.len() as u64;
                    if let Some(values) = values {
                        live += 1;
                        let key = schema.primary_key.iter().map(|&c| &values[c]);
                        hashes[slot as usize] = Table::pk_hash(key);
                    }
                    Ok(())
                };
                let payload = payload.to_vec();
                let block = TupleBlock::visiting(payload, first, slots, schema.arity(), visit)?;
                rel_blocks.push(Arc::new(block));
            }
            if live != rel.live_count {
                return Err(corrupt(format!(
                    "relation #{r} holds {live} live tuples, directory says {}",
                    rel.live_count
                )));
            }
            let span = dir.layout.block_span;
            let key_of = |slot: u32| {
                let tuple = rel_blocks[(slot / span) as usize].tuple(slot);
                tuple.map(|t| {
                    schema
                        .key_of(t.values())
                        .into_iter()
                        .cloned()
                        .collect::<Vec<_>>()
                })
            };
            check_pk_lane(schema, rel, dir.pk_lane(r), &hashes, key_of)?;
            blocks.push(rel_blocks);
        }
        if links != dir.layout.link_count {
            return Err(corrupt(format!(
                "v3 DATA holds {links} links, directory says {}",
                dir.layout.link_count
            )));
        }
        Ok(Arc::new(ResidentTupleStore { dir, blocks }))
    }
}

/// Check one relation's PK lane at a resident open. `hashes[slot]` is
/// the primary-key hash of each live slot, and `key_of(slot)` decodes
/// its key. The lane must hold exactly one `(hash, slot)` entry per live
/// tuple of a keyed relation, strictly ascending, and no two live tuples
/// may carry the same key: equal hashes sit side by side in the lane, so
/// only those runs are decoded and compared.
fn check_pk_lane<K: PartialEq>(
    schema: &RelationSchema,
    rel: &RelationLayout,
    lane: &[u8],
    hashes: &[u64],
    key_of: impl Fn(u32) -> K,
) -> StorageResult<()> {
    let keyed = if schema.has_primary_key() {
        rel.live_count
    } else {
        0
    };
    let entries = decode_lane(lane)?;
    let exact = rel.pk_lane.entries == keyed
        && entries.len() as u64 == keyed
        && entries.windows(2).all(|w| w[0] < w[1])
        && (entries.iter()).all(|&(hash, slot)| rel.is_live(slot) && hashes[slot as usize] == hash);
    if !exact {
        return Err(corrupt(format!(
            "pk lane disagrees with the live tuples of relation `{}`",
            schema.name
        )));
    }
    for run in entries
        .chunk_by(|a, b| a.0 == b.0)
        .filter(|run| run.len() > 1)
    {
        let keys: Vec<K> = run.iter().map(|&(_, slot)| key_of(slot)).collect();
        if (1..keys.len()).any(|i| keys[..i].contains(&keys[i])) {
            return Err(corrupt(format!(
                "duplicate primary key in relation `{}`",
                schema.name
            )));
        }
    }
    Ok(())
}

impl TupleStore for ResidentTupleStore {
    fn directory(&self) -> &DataDirectory {
        &self.dir
    }

    fn block(&self, rel: u32, block: u32) -> Arc<TupleBlock> {
        Arc::clone(&self.blocks[rel as usize][block as usize])
    }

    fn raw_block(&self, rel: u32, block: u32) -> StorageResult<(Vec<u8>, u64)> {
        let checksum = self.dir.relation(rel).blocks[block as usize].checksum;
        Ok((self.block(rel, block).payload.to_vec(), checksum))
    }

    fn stats(&self) -> Option<TupleStoreStats> {
        None
    }
}

// ---------------------------------------------------------------------
// Header layout
// ---------------------------------------------------------------------

/// Directory row of a PK lane.
#[derive(Debug, Clone, Copy)]
pub struct LaneRef {
    /// Byte offset from the section start.
    pub offset: u64,
    /// Encoded length in bytes.
    pub len: u64,
    /// Content checksum.
    pub checksum: u64,
    /// `(hash, slot)` entries in the lane.
    pub entries: u64,
}

/// Directory row of one tuple block.
#[derive(Debug, Clone, Copy)]
pub struct BlockRef {
    /// Byte offset from the section start.
    pub offset: u64,
    /// Encoded length in bytes.
    pub len: u64,
    /// Content checksum.
    pub checksum: u64,
}

/// Parsed per-relation directory.
#[derive(Debug, Clone)]
pub struct RelationLayout {
    /// Slots ever allocated (live + tombstoned).
    pub slot_count: u32,
    /// Live tuples.
    pub live_count: u64,
    /// Liveness bitmap, `ceil(slot_count / 8)` bytes, LSB-first.
    pub presence: Arc<[u8]>,
    /// The PK→slot lane.
    pub pk_lane: LaneRef,
    /// Block directory, `ceil(slot_count / block_span)` rows.
    pub blocks: Vec<BlockRef>,
}

impl RelationLayout {
    /// Is `slot` live per the presence bitmap?
    pub fn is_live(&self, slot: u32) -> bool {
        slot < self.slot_count && self.presence[(slot / 8) as usize] & (1 << (slot % 8)) != 0
    }
}

/// The parsed v3 DATA header: everything a paged open needs without
/// touching a single block payload.
#[derive(Debug, Clone)]
pub struct DataLayout {
    /// The catalog, as `schema.banks` text.
    pub schema_text: String,
    /// Total resolved foreign-key links.
    pub link_count: u64,
    /// Slots per block.
    pub block_span: u32,
    /// Per-relation directories, in catalog order.
    pub relations: Vec<RelationLayout>,
}

impl DataLayout {
    /// Bytes following the 16-byte prefix that belong to the header
    /// (payload + trailing checksum), from the prefix itself.
    pub fn header_span(prefix: &[u8]) -> StorageResult<usize> {
        if prefix.len() < HEADER_PREFIX {
            return Err(corrupt("v3 DATA section shorter than its prefix"));
        }
        if &prefix[..8] != DATA_V3_MAGIC {
            return Err(corrupt("not a v3 DATA section (bad magic)"));
        }
        let len = u64::from_le_bytes(prefix[8..16].try_into().expect("8 bytes"));
        if len > MAX_DECODE_LEN {
            return Err(corrupt(format!(
                "v3 DATA header length {len} is implausible"
            )));
        }
        Ok(len as usize + 8)
    }

    /// Parse a full header — magic, length, payload, and trailing
    /// checksum — verifying the checksum.
    pub fn parse(header: &[u8]) -> StorageResult<DataLayout> {
        let span = DataLayout::header_span(header)?;
        let rest = &header[HEADER_PREFIX..];
        if rest.len() < span {
            return Err(corrupt("v3 DATA header is truncated"));
        }
        let payload = &rest[..span - 8];
        let recorded = u64::from_le_bytes(rest[span - 8..span].try_into().expect("8 bytes"));
        if checksum64(payload) != recorded {
            return Err(corrupt("v3 DATA header checksum mismatch"));
        }
        DataLayout::parse_payload(payload)
    }

    fn parse_payload(payload: &[u8]) -> StorageResult<DataLayout> {
        let mut c = HCur {
            bytes: payload,
            at: 0,
        };
        let schema_len = c.u64("schema text length")?;
        if schema_len > MAX_DECODE_LEN {
            return Err(corrupt("schema text length is implausible"));
        }
        let schema_text = std::str::from_utf8(c.take(schema_len as usize, "schema text")?)
            .map_err(|_| corrupt("schema text is not valid UTF-8"))?
            .to_owned();
        let link_count = c.u64("link count")?;
        let block_span = c.u32("block span")?;
        if block_span == 0 {
            return Err(corrupt("v3 DATA block span is zero"));
        }
        let relation_count = c.u32("relation count")? as usize;
        let mut relations = Vec::with_capacity(relation_count.min(c.remaining()));
        for _ in 0..relation_count {
            let slot_count = c.u32("slot count")?;
            let live_count = c.u64("live count")?;
            let presence: Arc<[u8]> = c
                .take(slot_count.div_ceil(8) as usize, "presence bitmap")?
                .into();
            let pk_lane = LaneRef {
                offset: c.u64("pk lane offset")?,
                len: c.u64("pk lane length")?,
                checksum: c.u64("pk lane checksum")?,
                entries: c.u64("pk lane entry count")?,
            };
            let block_count = c.u32("block count")?;
            if u64::from(block_count) != u64::from(slot_count).div_ceil(u64::from(block_span)) {
                return Err(corrupt(format!(
                    "relation declares {block_count} blocks for {slot_count} slots at span {block_span}"
                )));
            }
            let mut blocks = Vec::with_capacity(block_count as usize);
            for _ in 0..block_count {
                blocks.push(BlockRef {
                    offset: c.u64("block offset")?,
                    len: c.u64("block length")?,
                    checksum: c.u64("block checksum")?,
                });
            }
            relations.push(RelationLayout {
                slot_count,
                live_count,
                presence,
                pk_lane,
                blocks,
            });
        }
        if c.at != payload.len() {
            return Err(corrupt("trailing bytes after v3 DATA header"));
        }
        Ok(DataLayout {
            schema_text,
            link_count,
            block_span,
            relations,
        })
    }

    /// Live tuples over all relations, from the directory alone.
    pub fn total_live(&self) -> u64 {
        self.relations.iter().map(|r| r.live_count).sum()
    }
}

/// A minimal fixed-width header cursor.
struct HCur<'a> {
    bytes: &'a [u8],
    at: usize,
}

impl<'a> HCur<'a> {
    fn take(&mut self, n: usize, what: &str) -> StorageResult<&'a [u8]> {
        if self.bytes.len() - self.at < n {
            return Err(corrupt(format!("{what}: v3 header ends early")));
        }
        let out = &self.bytes[self.at..self.at + n];
        self.at += n;
        Ok(out)
    }

    fn remaining(&self) -> usize {
        self.bytes.len() - self.at
    }

    fn u32(&mut self, what: &str) -> StorageResult<u32> {
        Ok(u32::from_le_bytes(
            self.take(4, what)?.try_into().expect("4 bytes"),
        ))
    }

    fn u64(&mut self, what: &str) -> StorageResult<u64> {
        Ok(u64::from_le_bytes(
            self.take(8, what)?.try_into().expect("8 bytes"),
        ))
    }
}

// ---------------------------------------------------------------------
// Block + lane codecs
// ---------------------------------------------------------------------

// Value tags (the booleans fold into the tag).
const TAG_NULL: u8 = 0;
const TAG_FALSE: u8 = 1;
const TAG_TRUE: u8 = 2;
const TAG_INT: u8 = 3;
const TAG_FLOAT: u8 = 4;
const TAG_TEXT: u8 = 5;

fn put_value(out: &mut Vec<u8>, v: &Value) {
    match v {
        Value::Null => out.push(TAG_NULL),
        Value::Bool(false) => out.push(TAG_FALSE),
        Value::Bool(true) => out.push(TAG_TRUE),
        Value::Int(i) => {
            out.push(TAG_INT);
            write_varint(out, zigzag(*i));
        }
        Value::Float(x) => {
            out.push(TAG_FLOAT);
            out.extend_from_slice(&x.to_le_bytes());
        }
        Value::Text(s) => {
            out.push(TAG_TEXT);
            write_varint(out, s.len() as u64);
            out.extend_from_slice(s.as_bytes());
        }
    }
}

/// One value decoded in place: text borrows the encoded bytes, every
/// other kind is small enough to materialize.
pub(crate) enum EncodedValue<'a> {
    Text(&'a str),
    Other(Value),
}

impl EncodedValue<'_> {
    /// Does this equal `v` under [`Value`]'s equality?
    pub(crate) fn matches(&self, v: &Value) -> bool {
        match self {
            EncodedValue::Text(s) => matches!(v, Value::Text(t) if t == s),
            EncodedValue::Other(own) => own == v,
        }
    }
}

/// Decode the value at `*pos` without allocating (see [`EncodedValue`]).
pub(crate) fn take_value_ref<'a>(
    bytes: &'a [u8],
    pos: &mut usize,
) -> StorageResult<EncodedValue<'a>> {
    let tag = *bytes
        .get(*pos)
        .ok_or_else(|| corrupt("tuple block ends inside a value tag"))?;
    *pos += 1;
    Ok(EncodedValue::Other(match tag {
        TAG_NULL => Value::Null,
        TAG_FALSE => Value::Bool(false),
        TAG_TRUE => Value::Bool(true),
        TAG_INT => Value::Int(unzigzag(
            read_varint(bytes, pos).ok_or_else(|| corrupt("bad int varint in tuple block"))?,
        )),
        TAG_FLOAT => {
            let raw = bytes
                .get(*pos..*pos + 8)
                .ok_or_else(|| corrupt("tuple block ends inside a float"))?;
            *pos += 8;
            Value::Float(f64::from_le_bytes(raw.try_into().expect("8 bytes")))
        }
        TAG_TEXT => {
            let len =
                read_varint(bytes, pos).ok_or_else(|| corrupt("bad text length in tuple block"))?;
            if len > MAX_DECODE_LEN {
                return Err(corrupt("text length in tuple block is implausible"));
            }
            let raw = bytes
                .get(*pos..*pos + len as usize)
                .ok_or_else(|| corrupt("tuple block ends inside a string"))?;
            *pos += len as usize;
            return Ok(EncodedValue::Text(
                std::str::from_utf8(raw)
                    .map_err(|_| corrupt("tuple block string is not valid UTF-8"))?,
            ));
        }
        other => return Err(corrupt(format!("unknown value tag {other} in tuple block"))),
    }))
}

/// Hashes exactly as the [`Value`] it encodes, so a primary-key hash
/// computed in place equals the one [`Table::pk_hash`] gives the decoded
/// key.
impl Hash for EncodedValue<'_> {
    fn hash<H: Hasher>(&self, state: &mut H) {
        match self {
            EncodedValue::Text(s) => {
                state.write_u8(3);
                s.hash(state);
            }
            EncodedValue::Other(v) => v.hash(state),
        }
    }
}

impl EncodedValue<'_> {
    /// The owned value.
    fn into_value(self) -> Value {
        match self {
            EncodedValue::Text(s) => Value::Text(s.to_owned()),
            EncodedValue::Other(v) => v,
        }
    }
}

/// Append `values` in the block value encoding — what a live slot of a
/// block holds before its back-reference sublane.
pub(crate) fn encode_values(values: &[Value], out: &mut Vec<u8>) {
    for v in values {
        put_value(out, v);
    }
}

/// The values of one live slot, as [`encode_block`] writes them: a
/// resident tuple, or a row already in the block value encoding (see
/// [`encode_values`]).
pub(crate) trait SlotValues {
    /// Append the encoded values to `out`.
    fn put(&self, out: &mut Vec<u8>);
}

impl SlotValues for Cow<'_, Tuple> {
    fn put(&self, out: &mut Vec<u8>) {
        encode_values(self.values(), out);
    }
}

impl SlotValues for &[u8] {
    fn put(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(self);
    }
}

/// Encode one block: per slot a presence byte, then (for live slots)
/// the tuple's values followed by its back-reference sublane.
///
/// `rows` yields `(values, refs)` per slot in `[first, end)` — `None`
/// for tombstones.
pub(crate) fn encode_block<V: SlotValues, R: AsRef<[BackRef]>>(
    rows: impl Iterator<Item = Option<(V, R)>>,
) -> Vec<u8> {
    let mut out = Vec::new();
    for row in rows {
        match row {
            None => out.push(0),
            Some((values, refs)) => {
                out.push(1);
                values.put(&mut out);
                let refs = refs.as_ref();
                write_varint(&mut out, refs.len() as u64);
                for r in refs {
                    write_varint(&mut out, u64::from(r.from.relation.0));
                    write_varint(&mut out, u64::from(r.from.slot));
                    write_varint(&mut out, r.fk_index as u64);
                }
            }
        }
    }
    out
}

/// Call `f` on each back-reference of the sublane at `*pos`.
fn each_ref(bytes: &[u8], pos: &mut usize, mut f: impl FnMut(BackRef)) -> StorageResult<()> {
    let count = read_varint(bytes, pos)
        .ok_or_else(|| corrupt("bad back-reference count in tuple block"))?;
    if count > MAX_DECODE_LEN {
        return Err(corrupt("back-reference count is implausible"));
    }
    for _ in 0..count {
        let rel = read_varint(bytes, pos).ok_or_else(|| corrupt("bad back-reference relation"))?;
        let slot = read_varint(bytes, pos).ok_or_else(|| corrupt("bad back-reference slot"))?;
        let fk = read_varint(bytes, pos).ok_or_else(|| corrupt("bad back-reference fk index"))?;
        if rel > u64::from(u32::MAX) || slot > u64::from(u32::MAX) {
            return Err(corrupt("back-reference rid out of range"));
        }
        f(BackRef {
            from: Rid::new(RelationId(rel as u32), slot as u32),
            fk_index: fk as usize,
        });
    }
    Ok(())
}

/// Read the slot at `*pos`: its presence byte and, when it is live, its
/// values (each handed to `value`) and back-references (each handed to
/// `back_ref`). Returns whether the slot is live. The one reader behind
/// indexing a block, decoding one slot of it, and verifying a resident
/// open.
fn read_slot<'a>(
    bytes: &'a [u8],
    pos: &mut usize,
    arity: usize,
    mut value: impl FnMut(EncodedValue<'a>),
    back_ref: impl FnMut(BackRef),
) -> StorageResult<bool> {
    let presence = *bytes
        .get(*pos)
        .ok_or_else(|| corrupt("tuple block ends inside a presence byte"))?;
    *pos += 1;
    match presence {
        0 => Ok(false),
        1 => {
            for _ in 0..arity {
                value(take_value_ref(bytes, pos)?);
            }
            each_ref(bytes, pos, back_ref)?;
            Ok(true)
        }
        other => Err(corrupt(format!("bad slot presence byte {other}"))),
    }
}

/// Validate an encoded block of slots `[first, first + slots)` at the
/// given arity, handing each slot to `visit` (see
/// [`TupleBlock::visiting`]), and return the offset of each slot's
/// presence byte.
fn index_slots(
    bytes: &[u8],
    first: u32,
    slots: u32,
    arity: usize,
    mut visit: impl FnMut(u32, Option<&[EncodedValue<'_>]>, &[BackRef]) -> StorageResult<()>,
) -> StorageResult<SlotIndex> {
    let mut offsets = Vec::with_capacity(slots as usize);
    let (mut values, mut refs) = (Vec::with_capacity(arity), Vec::new());
    let mut pos = 0usize;
    for slot in first..first + slots {
        offsets.push(pos as u32);
        values.clear();
        refs.clear();
        let live = read_slot(bytes, &mut pos, arity, |v| values.push(v), |r| refs.push(r))?;
        visit(slot, live.then_some(&values[..]), &refs)?;
    }
    if pos != bytes.len() {
        return Err(corrupt("trailing bytes after tuple block"));
    }
    Ok(SlotIndex::new(offsets, bytes.len()))
}

const VALIDATED: &str = "tuple block validated when it was indexed";

/// Decode the tuple of the slot at payload offset `at` (`None` for a
/// tombstone). The payload must have passed [`index_slots`].
fn decode_tuple_at(bytes: &[u8], mut at: usize, arity: usize) -> Option<Tuple> {
    let mut values = Vec::with_capacity(arity);
    let live = read_slot(
        bytes,
        &mut at,
        arity,
        |v| values.push(v.into_value()),
        |_| {},
    )
    .expect(VALIDATED);
    live.then(|| Tuple::new(values))
}

/// Decode the back-reference list of the slot at payload offset `at`
/// (empty for a tombstone). The payload must have passed
/// [`index_slots`].
fn decode_refs_at(bytes: &[u8], mut at: usize, arity: usize) -> Vec<BackRef> {
    let mut refs = Vec::new();
    read_slot(bytes, &mut at, arity, |_| {}, |r| refs.push(r)).expect(VALIDATED);
    refs
}

/// Candidate slots for `hash` in an encoded PK lane (sorted 12-byte
/// `(u64 hash, u32 slot)` entries), by binary search.
pub fn lane_candidates(lane: &[u8], hash: u64) -> Vec<u32> {
    let n = lane.len() / 12;
    let entry_hash = |i: usize| u64::from_le_bytes(lane[i * 12..i * 12 + 8].try_into().expect("8"));
    // Lower bound.
    let (mut a, mut b) = (0usize, n);
    while a < b {
        let mid = (a + b) / 2;
        if entry_hash(mid) < hash {
            a = mid + 1;
        } else {
            b = mid;
        }
    }
    let lo = a;
    // Upper bound.
    let (mut a, mut b) = (lo, n);
    while a < b {
        let mid = (a + b) / 2;
        if entry_hash(mid) <= hash {
            a = mid + 1;
        } else {
            b = mid;
        }
    }
    let hi = a;
    (lo..hi)
        .map(|i| u32::from_le_bytes(lane[i * 12 + 8..i * 12 + 12].try_into().expect("4")))
        .collect()
}

/// Encode a PK lane from `(hash, slot)` entries (sorted here).
pub(crate) fn encode_lane(mut entries: Vec<(u64, u32)>) -> Vec<u8> {
    entries.sort_unstable();
    let mut out = Vec::with_capacity(entries.len() * 12);
    for (hash, slot) in entries {
        out.extend_from_slice(&hash.to_le_bytes());
        out.extend_from_slice(&slot.to_le_bytes());
    }
    out
}

/// Decode a PK lane back into `(hash, slot)` entries.
pub(crate) fn decode_lane(lane: &[u8]) -> StorageResult<Vec<(u64, u32)>> {
    if !lane.len().is_multiple_of(12) {
        return Err(corrupt("pk lane length is not a multiple of 12"));
    }
    Ok(lane
        .chunks_exact(12)
        .map(|c| {
            (
                u64::from_le_bytes(c[..8].try_into().expect("8")),
                u32::from_le_bytes(c[8..].try_into().expect("4")),
            )
        })
        .collect())
}

// ---------------------------------------------------------------------
// Whole-section encode / decode
// ---------------------------------------------------------------------

/// One relation's payloads, ready for assembly.
pub(crate) struct RelationPayload {
    pub slot_count: u32,
    pub live_count: u64,
    pub presence: Vec<u8>,
    pub pk_lane: Vec<u8>,
    pub pk_checksum: u64,
    pub pk_entries: u64,
    /// `(bytes, checksum)` per block.
    pub blocks: Vec<(Vec<u8>, u64)>,
}

/// Serialize a database as a v3 DATA section. For a lazy database this
/// is copy-on-write: blocks and lanes of untouched relations are copied
/// raw (bytes and checksums) from the backing store without decoding;
/// only blocks overlapping an ingest overlay are re-encoded.
pub fn encode_database_v3(db: &Database) -> StorageResult<Vec<u8>> {
    let span = db
        .tuple_store()
        .map(|s| s.block_span())
        .unwrap_or(BLOCK_SPAN);
    encode_database_v3_with_span(db, span)
}

/// [`encode_database_v3`] with an explicit block span (tests use tiny
/// spans to force paging). A lazy database must be encoded at its
/// store's span — clean-block reuse depends on identical block ranges.
pub fn encode_database_v3_with_span(db: &Database, span: u32) -> StorageResult<Vec<u8>> {
    if span == 0 {
        return Err(corrupt("block span must be positive"));
    }
    if let Some(store) = db.tuple_store() {
        if store.block_span() != span {
            return Err(corrupt(format!(
                "lazy database must be encoded at its store's span {} (got {span})",
                store.block_span()
            )));
        }
    }
    let payloads: Vec<RelationPayload> = db
        .relations()
        .map(|table| db.v3_relation_payload(table.id(), span))
        .collect::<StorageResult<_>>()?;
    let mut out = Vec::new();
    write_data_section(
        &mut out,
        &schema_to_text(db),
        db.link_count() as u64,
        span,
        &payloads,
    )
    .expect("writing to a Vec cannot fail");
    Ok(out)
}

/// Write a v3 DATA section — prefix, checksummed header, then every
/// relation's PK lane and blocks — around already encoded relation
/// payloads. The one assembler behind [`encode_database_v3`] and the
/// staged-corpus writer ([`crate::arena::StagedRows`]).
pub(crate) fn write_data_section(
    out: &mut impl std::io::Write,
    schema_text: &str,
    link_count: u64,
    span: u32,
    payloads: &[RelationPayload],
) -> std::io::Result<()> {
    // Header size is fully determined by the payload shapes; lay the
    // header out first, then assign payload offsets after it.
    let mut header_len = 8 + schema_text.len() + 8 + 4 + 4;
    for p in payloads {
        header_len += 4 + 8 + p.presence.len() + 32 + 4 + p.blocks.len() * 24;
    }
    let mut offset = (HEADER_PREFIX + header_len + 8) as u64;

    let mut header = Vec::with_capacity(header_len);
    write_fixed_u64(&mut header, schema_text.len() as u64);
    header.extend_from_slice(schema_text.as_bytes());
    write_fixed_u64(&mut header, link_count);
    header.extend_from_slice(&span.to_le_bytes());
    header.extend_from_slice(&(payloads.len() as u32).to_le_bytes());
    for p in payloads {
        header.extend_from_slice(&p.slot_count.to_le_bytes());
        write_fixed_u64(&mut header, p.live_count);
        header.extend_from_slice(&p.presence);
        write_fixed_u64(&mut header, offset);
        write_fixed_u64(&mut header, p.pk_lane.len() as u64);
        write_fixed_u64(&mut header, p.pk_checksum);
        write_fixed_u64(&mut header, p.pk_entries);
        offset += p.pk_lane.len() as u64;
        header.extend_from_slice(&(p.blocks.len() as u32).to_le_bytes());
        for (bytes, checksum) in &p.blocks {
            write_fixed_u64(&mut header, offset);
            write_fixed_u64(&mut header, bytes.len() as u64);
            write_fixed_u64(&mut header, *checksum);
            offset += bytes.len() as u64;
        }
    }
    debug_assert_eq!(header.len(), header_len);

    out.write_all(DATA_V3_MAGIC)?;
    out.write_all(&(header_len as u64).to_le_bytes())?;
    out.write_all(&header)?;
    out.write_all(&checksum64(&header).to_le_bytes())?;
    for p in payloads {
        out.write_all(&p.pk_lane)?;
        for (bytes, _) in &p.blocks {
            out.write_all(bytes)?;
        }
    }
    Ok(())
}

fn write_fixed_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::ColumnType;

    /// Open `bytes` the way an in-RAM bundle load does.
    fn open_resident(bytes: &[u8]) -> StorageResult<Database> {
        let store = ResidentTupleStore::open(bytes)?;
        let schema_text = store.directory().layout.schema_text.clone();
        Database::open_lazy(&schema_text, store)
    }

    /// The message of the `Corrupt` a resident open refuses `bytes` with.
    fn refusal(bytes: &[u8]) -> String {
        match ResidentTupleStore::open(bytes).map(drop) {
            Err(StorageError::Corrupt(m)) => m,
            other => panic!("a resident open must refuse with Corrupt, got {other:?}"),
        }
    }

    /// A section of `db` at span 8 whose relation payloads and link
    /// count `edit` changes before assembly.
    fn forged(db: &Database, edit: impl FnOnce(&mut [RelationPayload], &mut u64)) -> Vec<u8> {
        let mut payloads: Vec<_> = (db.relations())
            .map(|t| db.v3_relation_payload(t.id(), 8).unwrap())
            .collect();
        let mut links = db.link_count() as u64;
        edit(&mut payloads, &mut links);
        let mut out = Vec::new();
        write_data_section(&mut out, &schema_to_text(db), links, 8, &payloads).unwrap();
        out
    }

    /// Block 0 (span 8) of relation `rel` of `db`, re-encoded after
    /// `edit` changed its rows.
    fn edited_block(
        db: &Database,
        rel: u32,
        edit: impl FnOnce(&mut [Option<(Tuple, Vec<BackRef>)>]),
    ) -> (Vec<u8>, u64) {
        let table = db.table(RelationId(rel));
        let mut rows: Vec<_> = (0..8)
            .map(|slot| {
                let refs = db.referencing(Rid::new(table.id(), slot)).into_owned();
                table.get(slot).map(|t| (t.into_owned(), refs))
            })
            .collect();
        edit(&mut rows);
        let bytes = encode_block(
            (rows.into_iter()).map(|row| row.map(|(t, refs)| (Cow::<Tuple>::Owned(t), refs))),
        );
        let checksum = checksum64(&bytes);
        (bytes, checksum)
    }

    fn sample_db() -> Database {
        let mut db = Database::new("blocks-test");
        db.create_relation(
            RelationSchema::builder("Author")
                .column("Id", ColumnType::Text)
                .nullable_column("Name", ColumnType::Text)
                .nullable_column("H", ColumnType::Int)
                .primary_key(&["Id"])
                .build()
                .unwrap(),
        )
        .unwrap();
        db.create_relation(
            RelationSchema::builder("Paper")
                .column("Id", ColumnType::Text)
                .column("Year", ColumnType::Int)
                .nullable_column("Score", ColumnType::Float)
                .column("Pub", ColumnType::Bool)
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
        for i in 0..40 {
            db.insert(
                "Author",
                vec![
                    Value::text(format!("a{i}")),
                    Value::text(format!("Author Number {i}")),
                    if i % 3 == 0 {
                        Value::Int(i)
                    } else {
                        Value::Null
                    },
                ],
            )
            .unwrap();
        }
        for i in 0..10 {
            db.insert(
                "Paper",
                vec![
                    Value::text(format!("p{i}")),
                    Value::Int(1990 + i),
                    if i % 2 == 0 {
                        Value::Float(i as f64 / 2.0)
                    } else {
                        Value::Null
                    },
                    Value::Bool(i % 2 == 1),
                ],
            )
            .unwrap();
        }
        for i in 0..40 {
            db.insert(
                "Writes",
                vec![
                    Value::text(format!("a{i}")),
                    Value::text(format!("p{}", i % 10)),
                ],
            )
            .unwrap();
        }
        // Punch holes so tombstones round-trip.
        for i in [3i64, 17] {
            let w = db
                .relation("Writes")
                .unwrap()
                .lookup_pk(&[
                    Value::text(format!("a{i}")),
                    Value::text(format!("p{}", i % 10)),
                ])
                .unwrap();
            db.delete(w).unwrap();
            let a = db
                .relation("Author")
                .unwrap()
                .lookup_pk(&[Value::text(format!("a{i}"))])
                .unwrap();
            db.delete(a).unwrap();
        }
        db
    }

    fn assert_same(db: &Database, other: &Database) {
        assert_eq!(db.name(), other.name());
        assert_eq!(db.total_tuples(), other.total_tuples());
        assert_eq!(db.link_count(), other.link_count());
        for (a, b) in db.relations().zip(other.relations()) {
            assert_eq!(a.schema(), b.schema());
            assert_eq!(a.slot_count(), b.slot_count());
            let av: Vec<_> = a.scan().map(|(r, t)| (r, t.clone())).collect();
            let bv: Vec<_> = b.scan().map(|(r, t)| (r, t.clone())).collect();
            assert_eq!(av, bv);
            for (rid, _) in a.scan() {
                assert_eq!(db.referencing(rid), other.referencing(rid), "{rid}");
            }
        }
    }

    #[test]
    fn v3_roundtrip_default_span() {
        let db = sample_db();
        let bytes = encode_database_v3(&db).unwrap();
        let restored = open_resident(&bytes).unwrap();
        assert_same(&db, &restored);
        // Deterministic, and an untouched reopened database copies its
        // blocks raw.
        assert_eq!(bytes, encode_database_v3(&restored).unwrap());
        assert!(
            restored.tuple_store_stats().is_none(),
            "resident: no paging"
        );
    }

    #[test]
    fn v3_roundtrip_tiny_span_multiblock() {
        let db = sample_db();
        let bytes = encode_database_v3_with_span(&db, 7).unwrap();
        let layout = DataLayout::parse(&bytes).unwrap();
        assert!(layout.relations[0].blocks.len() > 3, "multiple blocks");
        let restored = open_resident(&bytes).unwrap();
        assert_same(&db, &restored);
        assert_eq!(bytes, encode_database_v3_with_span(&restored, 7).unwrap());
    }

    #[test]
    fn per_slot_decode_equals_the_full_decode() {
        // Tombstones (deleted Writes and Authors), back-references
        // (Authors and Papers are referenced), nulls, floats and bools,
        // over blocks of 7 slots: every slot a resident store decodes
        // equals the database built by inserts ("full": every tuple and
        // list held decoded).
        let full = sample_db();
        let bytes = encode_database_v3_with_span(&full, 7).unwrap();
        let store = ResidentTupleStore::open(&bytes).unwrap();
        let layout = &store.directory().layout;
        let (mut tombstones, mut refs_seen) = (0, 0);
        for (table, rel) in full.relations().zip(&layout.relations) {
            for (b, blk) in rel.blocks.iter().enumerate() {
                let (first, in_block) = store.directory().block_slots(table.id().0, b as u32);
                let block = store.block(table.id().0, b as u32);
                assert_eq!(block.bytes(), blk.len as usize + 2 * in_block as usize);
                for slot in first..first + in_block {
                    let rid = Rid::new(table.id(), slot);
                    assert_eq!(
                        block.tuple(slot).as_ref(),
                        table.get(slot).as_deref(),
                        "{rid}"
                    );
                    assert_eq!(block.refs(slot), *full.referencing(rid), "{rid}");
                    tombstones += usize::from(table.get(slot).is_none());
                    refs_seen += full.referencing(rid).len();
                }
                // Slots outside the block read as absent.
                assert_eq!(block.tuple(first + in_block), None);
                assert!(block.refs(first + in_block).is_empty());
            }
        }
        assert_eq!(tombstones, 4);
        assert_eq!(refs_seen, full.link_count());
    }

    #[test]
    fn a_corrupt_block_is_refused_when_indexed() {
        let db = sample_db();
        let bytes = encode_database_v3_with_span(&db, 8).unwrap();
        let layout = DataLayout::parse(&bytes).unwrap();
        let blk = layout.relations[1].blocks[0];
        let payload = &bytes[blk.offset as usize..(blk.offset + blk.len) as usize];
        assert!(TupleBlock::new(payload.to_vec(), 0, 8, 4).is_ok());
        // A bad presence byte, a truncated payload, trailing bytes, and
        // a payload read at the wrong arity.
        let mut bad = payload.to_vec();
        bad[0] = 7;
        assert!(TupleBlock::new(bad, 0, 8, 4).is_err());
        assert!(TupleBlock::new(payload[..payload.len() - 1].to_vec(), 0, 8, 4).is_err());
        let mut long = payload.to_vec();
        long.push(0);
        assert!(TupleBlock::new(long, 0, 8, 4).is_err());
        assert!(TupleBlock::new(payload.to_vec(), 0, 8, 3).is_err());
    }

    #[test]
    fn header_parses_without_touching_blocks() {
        let db = sample_db();
        let bytes = encode_database_v3_with_span(&db, 8).unwrap();
        let span = DataLayout::header_span(&bytes[..HEADER_PREFIX]).unwrap();
        let layout = DataLayout::parse(&bytes[..HEADER_PREFIX + span]).unwrap();
        assert_eq!(layout.relations.len(), 3);
        assert_eq!(layout.total_live(), db.total_tuples() as u64);
        assert_eq!(layout.link_count, db.link_count() as u64);
        // Presence bitmap answers liveness from the header alone.
        let writes = &layout.relations[2];
        assert_eq!(
            (0..writes.slot_count)
                .filter(|&s| writes.is_live(s))
                .count() as u64,
            writes.live_count
        );
    }

    #[test]
    fn corruption_detected_in_header_and_blocks() {
        let db = sample_db();
        let mut bytes = encode_database_v3_with_span(&db, 8).unwrap();
        // Bad magic.
        let mut bad = bytes.clone();
        bad[0] ^= 0xff;
        assert!(open_resident(&bad).is_err());
        // Flipped header byte → checksum mismatch.
        let mut torn = bytes.clone();
        torn[HEADER_PREFIX + 4] ^= 0x01;
        refusal(&torn);
        // Truncated anywhere → refused, never a panic.
        for cut in [4, HEADER_PREFIX + 3, bytes.len() / 2, bytes.len() - 1] {
            refusal(&bytes[..cut]);
        }
        // Flipped payload byte → block or lane checksum mismatch.
        let last = bytes.len() - 2;
        bytes[last] ^= 0x20;
        assert!(refusal(&bytes).contains("checksum"));
    }

    #[test]
    fn resident_open_rejects_inconsistent_back_references() {
        let db = sample_db();
        // Paper 0 (relation 1) is referenced through foreign key #1 of
        // Writes (relation 2); Writes slot 3 is a tombstone.
        let with_ref = |from: Rid, fk_index: usize| {
            forged(&db, |payloads, _| {
                payloads[1].blocks[0] = edited_block(&db, 1, |rows| {
                    let (_, refs) = rows[0].as_mut().unwrap();
                    refs[0] = BackRef { from, fk_index };
                });
            })
        };
        let writes = |slot| Rid::new(RelationId(2), slot);
        assert!(ResidentTupleStore::open(&with_ref(writes(5), 1)).is_ok());
        let m = refusal(&with_ref(writes(3), 1));
        assert!(m.contains("not a live tuple"), "dead source: {m}");
        let m = refusal(&with_ref(writes(999), 1));
        assert!(
            m.contains("not a live tuple"),
            "slot past the relation: {m}"
        );
        let m = refusal(&with_ref(Rid::new(RelationId(9), 0), 1));
        assert!(m.contains("not a live tuple"), "no such relation: {m}");
        let m = refusal(&with_ref(writes(5), 7));
        assert!(
            m.contains("foreign key"),
            "fk #7 of Writes does not exist: {m}"
        );
        let m = refusal(&with_ref(writes(5), 0));
        assert!(m.contains("foreign key"), "fk #0 references Author: {m}");
    }

    #[test]
    fn resident_open_rejects_what_a_full_decode_refused() {
        let db = sample_db();
        // Author lane entries edited by `edit`, count and checksum kept
        // consistent.
        type LaneEntries = Vec<(u64, u32)>;
        let relane = |payload: &mut RelationPayload, edit: fn(&mut LaneEntries)| {
            let mut entries = decode_lane(&payload.pk_lane).unwrap();
            edit(&mut entries);
            let lane = encode_lane(entries);
            payload.pk_checksum = checksum64(&lane);
            payload.pk_entries = (lane.len() / 12) as u64;
            payload.pk_lane = lane;
        };
        // Two live Authors with one primary key, the lane listing both.
        let m = refusal(&forged(&db, |payloads, _| {
            payloads[0].blocks[0] = edited_block(&db, 0, |rows| rows[1] = rows[0].clone());
            relane(&mut payloads[0], |entries| {
                let first = entries.iter().find(|e| e.1 == 0).unwrap().0;
                entries.iter_mut().find(|e| e.1 == 1).unwrap().0 = first;
            });
        }));
        assert!(m.contains("duplicate primary key"), "{m}");
        // A presence bitmap that says Author 0 is dead while its block
        // holds it.
        let m = refusal(&forged(&db, |payloads, _| payloads[0].presence[0] ^= 1));
        assert!(m.contains("presence bitmap"), "{m}");
        // A PK lane that points a key at the wrong slot, one that lost
        // an entry, and one that lists an entry twice.
        let edits: [fn(&mut LaneEntries); 3] = [
            |e| e[0].1 ^= 1,
            |e| {
                e.pop();
            },
            |e| {
                e.pop();
                e.push(e[0]);
            },
        ];
        for edit in edits {
            let m = refusal(&forged(&db, |payloads, _| relane(&mut payloads[0], edit)));
            assert!(m.contains("pk lane disagrees"), "{m}");
        }
        // Directory live and link counts that disagree with the blocks.
        let m = refusal(&forged(&db, |payloads, _| payloads[2].live_count += 1));
        assert!(m.contains("live tuples, directory says"), "{m}");
        let m = refusal(&forged(&db, |_, links| *links -= 1));
        assert!(m.contains("links, directory says"), "{m}");
        // Untouched, the same assembly opens.
        assert!(ResidentTupleStore::open(&forged(&db, |_, _| {})).is_ok());
    }

    #[test]
    fn lane_candidates_binary_search() {
        let entries = vec![(9u64, 4u32), (2, 7), (9, 1), (2, 3), (5, 0)];
        let lane = encode_lane(entries);
        assert_eq!(lane_candidates(&lane, 2), vec![3, 7]);
        assert_eq!(lane_candidates(&lane, 5), vec![0]);
        assert_eq!(lane_candidates(&lane, 9), vec![1, 4]);
        assert!(lane_candidates(&lane, 1).is_empty());
        assert!(lane_candidates(&lane, 100).is_empty());
        assert_eq!(decode_lane(&lane).unwrap().len(), 5);
    }

    #[test]
    fn varint_zigzag_roundtrip() {
        for v in [0i64, 1, -1, 63, -64, 1998, -123456789, i64::MAX, i64::MIN] {
            let mut out = Vec::new();
            write_varint(&mut out, zigzag(v));
            let mut pos = 0;
            assert_eq!(unzigzag(read_varint(&out, &mut pos).unwrap()), v);
        }
    }
}
