//! The v3 DATA section: block-paged tuple storage.
//!
//! PR 7 took the graph and postings out of core; this module does the
//! same for the tuples themselves. The DATA payload is reframed per
//! relation and per fixed-span **slot block**, behind a self-describing
//! checksummed header, so a paged open can verify the directory only
//! (O(blocks)) and decode tuple blocks lazily on first touch:
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
//! [`TupleStore`] is where a lazy `Database` (see
//! [`crate::Database::open_lazy`]) gets its blocks from; its one
//! implementor is `banks-pager`'s `PagedTupleStore`, which pages them
//! from disk under a memory budget. The lazy `Database` hands out
//! `&Tuple`/`&[BackRef]` borrows licensed by the same per-thread
//! keep-alive ring contract the paged graph store uses. An eager
//! `Database` needs no store: it encodes its slot vectors directly
//! ([`encode_database_v3`]).

use crate::catalog::{BackRef, Database};
use crate::error::{StorageError, StorageResult};
use crate::schema::{schema_from_text, schema_to_text};
use crate::tuple::{RelationId, Rid, Tuple};
use crate::value::Value;
use banks_util::fxhash::FxHasher;
use std::cell::RefCell;
use std::hash::Hasher;
use std::sync::Arc;

/// Magic prefix of a v3 DATA section.
pub(crate) const DATA_V3_MAGIC: &[u8; 8] = b"BNKSDT03";

/// Slots per tuple block. A DBLP-shaped tuple decodes to ~150 bytes
/// (values, heap headers, back-references), so 128 slots are ~20 KB
/// decoded — still one positioned read, and small enough that rendering
/// an answer set (a few dozen tuples scattered over as many blocks)
/// decodes about a megabyte rather than sweeping an 8 MiB
/// `--memory-budget` several times over, as 4096-slot (~600 KB) blocks
/// did. Readers take the span from the section header, so sections
/// written at another span stay readable.
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
// Keep-alive ring
// ---------------------------------------------------------------------

/// Slots in the per-thread keep-alive ring; a `&Tuple` or `&[BackRef]`
/// handed out of a lazy table stays valid for at least `RING_SLOTS − 1`
/// further block accesses on its thread. Re-accessing the block parked
/// last does not advance the ring, so it holds the `RING_SLOTS` most
/// recent *distinct* blocks and the guarantee only gets longer. The
/// ring is outside the memory budget: at worst each thread keeps 64
/// evicted blocks alive, ~20 KB each at [`BLOCK_SPAN`].
const RING_SLOTS: usize = 64;

thread_local! {
    static KEEPALIVE: RefCell<(usize, Vec<Option<Arc<TupleBlock>>>)> =
        RefCell::new((0, vec![None; RING_SLOTS]));
}

/// Park `block` in this thread's keep-alive ring, unless it is the
/// block parked last.
pub(crate) fn keep_alive(block: &Arc<TupleBlock>) {
    KEEPALIVE.with(|cell| {
        let (next, ring) = &mut *cell.borrow_mut();
        let last = &ring[(*next + RING_SLOTS - 1) % RING_SLOTS];
        if last
            .as_ref()
            .is_some_and(|parked| Arc::ptr_eq(parked, block))
        {
            return;
        }
        ring[*next] = Some(Arc::clone(block));
        *next = (*next + 1) % RING_SLOTS;
    });
}

/// Extend a reference's lifetime to the caller's choosing.
///
/// # Safety
///
/// The referent must be kept alive by an external mechanism for as long
/// as the caller is permitted (by the documented contract) to use it —
/// here, the keep-alive ring.
pub(crate) unsafe fn extend_ref<'a, T: ?Sized>(r: &T) -> &'a T {
    &*(r as *const T)
}

// ---------------------------------------------------------------------
// Decoded blocks + the TupleStore trait
// ---------------------------------------------------------------------

/// One decoded tuple block: `block_span` consecutive slots of a
/// relation, with each live slot's tuple and reverse-reference list.
#[derive(Debug)]
pub struct TupleBlock {
    /// First slot covered by this block.
    pub first_slot: u32,
    /// Per-slot tuples (`None` = tombstone), `slots_in_block` long.
    pub tuples: Vec<Option<Tuple>>,
    /// Per-slot reverse references, aligned with `tuples`.
    pub back_refs: Vec<Vec<BackRef>>,
    /// Estimated decoded heap footprint, for cache accounting.
    pub bytes: usize,
}

impl TupleBlock {
    /// The tuple at absolute `slot`, if live and in range.
    pub(crate) fn tuple(&self, slot: u32) -> Option<&Tuple> {
        self.tuples
            .get(slot.checked_sub(self.first_slot)? as usize)?
            .as_ref()
    }

    /// The reverse references of absolute `slot` (empty if out of range).
    pub(crate) fn refs(&self, slot: u32) -> &[BackRef] {
        slot.checked_sub(self.first_slot)
            .and_then(|i| self.back_refs.get(i as usize))
            .map(|v| v.as_slice())
            .unwrap_or(&[])
    }
}

/// Cache counters of a [`TupleStore`] (zeros for stores that never
/// page).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct TupleStoreStats {
    /// Decoded tuple-block bytes currently resident.
    pub resident_bytes: usize,
    /// Memory budget shared with the graph store (0 = unbounded).
    pub budget_bytes: usize,
    /// Total blocks across all relations.
    pub block_count: usize,
    /// Blocks currently decoded.
    pub resident_blocks: usize,
    /// Blocks decoded into residency since open.
    pub page_ins: u64,
    /// Blocks evicted under budget pressure since open.
    pub evictions: u64,
    /// Nanoseconds spent decoding blocks.
    pub decode_nanos: u64,
}

/// Where a lazy [`Database`]'s tuples live: a paged backend.
///
/// `block` has no error channel (callers are deep inside borrow-handing
/// accessors); paged implementations panic on I/O or checksum failure,
/// exactly like the paged graph store. Directory-level corruption is
/// caught (typed) at open instead.
pub trait TupleStore: std::fmt::Debug + Send + Sync {
    /// Number of relations.
    fn relation_count(&self) -> usize;
    /// Slots per block this store was encoded with.
    fn block_span(&self) -> u32;
    /// Slots ever allocated in relation `rel` (live + tombstoned).
    fn slot_count(&self, rel: u32) -> u32;
    /// Live tuples in relation `rel`.
    fn live_count(&self, rel: u32) -> usize;
    /// Total resolved foreign-key links.
    fn link_count(&self) -> u64;
    /// Is `slot` of relation `rel` live? Answered from the presence
    /// bitmap — never decodes a block.
    fn is_live(&self, rel: u32, slot: u32) -> bool;
    /// The decoded block `block` of relation `rel`
    /// (`block = slot / block_span()`).
    fn block(&self, rel: u32, block: u32) -> Arc<TupleBlock>;
    /// Slots of relation `rel` whose primary-key hash is `hash`, from
    /// the PK lane — candidates only; callers confirm by value.
    fn pk_candidates(&self, rel: u32, hash: u64) -> Vec<u32>;
    /// Encoded bytes + recorded checksum of a block — the COW snapshot
    /// writer's clean-block fast path.
    fn raw_block(&self, rel: u32, block: u32) -> StorageResult<(Vec<u8>, u64)>;
    /// Encoded PK lane bytes + checksum + entry count of a relation.
    fn raw_pk_lane(&self, rel: u32) -> StorageResult<(Vec<u8>, u64, u64)>;
    /// Cache counters (zeros when nothing is paged).
    fn stats(&self) -> TupleStoreStats;
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

fn take_value(bytes: &[u8], pos: &mut usize) -> StorageResult<Value> {
    Ok(match take_value_ref(bytes, pos)? {
        EncodedValue::Text(s) => Value::Text(s.to_owned()),
        EncodedValue::Other(v) => v,
    })
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

impl SlotValues for &Tuple {
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
pub(crate) fn encode_block<'a, V: SlotValues>(
    rows: impl Iterator<Item = Option<(V, &'a [BackRef])>>,
) -> Vec<u8> {
    let mut out = Vec::new();
    for row in rows {
        match row {
            None => out.push(0),
            Some((values, refs)) => {
                out.push(1);
                values.put(&mut out);
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

/// Decode one block covering absolute slots `[first_slot, first_slot +
/// slots_in_block)` of a relation with the given tuple arity.
pub fn decode_block(
    bytes: &[u8],
    first_slot: u32,
    slots_in_block: u32,
    arity: usize,
) -> StorageResult<TupleBlock> {
    let mut pos = 0usize;
    let mut tuples = Vec::with_capacity(slots_in_block as usize);
    let mut back_refs = Vec::with_capacity(slots_in_block as usize);
    let mut bytes_est = 0usize;
    for _ in 0..slots_in_block {
        let presence = *bytes
            .get(pos)
            .ok_or_else(|| corrupt("tuple block ends inside a presence byte"))?;
        pos += 1;
        match presence {
            0 => {
                tuples.push(None);
                back_refs.push(Vec::new());
            }
            1 => {
                let mut values = Vec::with_capacity(arity);
                for _ in 0..arity {
                    values.push(take_value(bytes, &mut pos)?);
                }
                bytes_est += 48
                    + arity * 32
                    + values
                        .iter()
                        .map(|v| match v {
                            Value::Text(s) => s.len(),
                            _ => 0,
                        })
                        .sum::<usize>();
                let count = read_varint(bytes, &mut pos)
                    .ok_or_else(|| corrupt("bad back-reference count in tuple block"))?;
                if count > MAX_DECODE_LEN {
                    return Err(corrupt("back-reference count is implausible"));
                }
                let mut refs = Vec::with_capacity((count as usize).min(bytes.len() - pos));
                for _ in 0..count {
                    let rel = read_varint(bytes, &mut pos)
                        .ok_or_else(|| corrupt("bad back-reference relation"))?;
                    let slot = read_varint(bytes, &mut pos)
                        .ok_or_else(|| corrupt("bad back-reference slot"))?;
                    let fk = read_varint(bytes, &mut pos)
                        .ok_or_else(|| corrupt("bad back-reference fk index"))?;
                    if rel > u64::from(u32::MAX) || slot > u64::from(u32::MAX) {
                        return Err(corrupt("back-reference rid out of range"));
                    }
                    refs.push(BackRef {
                        from: Rid::new(RelationId(rel as u32), slot as u32),
                        fk_index: fk as usize,
                    });
                }
                bytes_est += 24 + refs.len() * std::mem::size_of::<BackRef>();
                tuples.push(Some(Tuple::new(values)));
                back_refs.push(refs);
            }
            other => return Err(corrupt(format!("bad slot presence byte {other}"))),
        }
    }
    if pos != bytes.len() {
        return Err(corrupt("trailing bytes after tuple block"));
    }
    Ok(TupleBlock {
        first_slot,
        tuples,
        back_refs,
        bytes: bytes_est + 64,
    })
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

/// Fully decode a v3 DATA section into an eager [`Database`] — the
/// non-paged bundle load path. Every block and lane checksum is
/// verified; any inconsistency is [`StorageError::Corrupt`].
pub fn decode_database_v3(bytes: &[u8]) -> StorageResult<Database> {
    let layout = DataLayout::parse(bytes)?;
    let mut db = schema_from_text(&layout.schema_text)?;
    if db.relation_count() != layout.relations.len() {
        return Err(corrupt(format!(
            "schema declares {} relations but the v3 directory carries {}",
            db.relation_count(),
            layout.relations.len()
        )));
    }
    let section = |offset: u64, len: u64, what: &str| -> StorageResult<&[u8]> {
        bytes
            .get(offset as usize..(offset + len) as usize)
            .ok_or_else(|| corrupt(format!("{what} extends past the v3 DATA section")))
    };
    let meta: Vec<(RelationId, usize)> = db
        .relations()
        .map(|t| (t.id(), t.schema().arity()))
        .collect();
    let mut links: Vec<(Rid, Vec<BackRef>)> = Vec::new();
    for ((id, arity), rel) in meta.into_iter().zip(&layout.relations) {
        let lane = section(rel.pk_lane.offset, rel.pk_lane.len, "pk lane")?;
        if checksum64(lane) != rel.pk_lane.checksum {
            return Err(corrupt(format!(
                "pk lane checksum mismatch in relation {id}"
            )));
        }
        let mut slots: Vec<Option<Tuple>> = Vec::with_capacity(rel.slot_count as usize);
        for (b, blk) in rel.blocks.iter().enumerate() {
            let raw = section(blk.offset, blk.len, "tuple block")?;
            if checksum64(raw) != blk.checksum {
                return Err(corrupt(format!(
                    "tuple block {b} checksum mismatch in relation {id}"
                )));
            }
            let first = b as u32 * layout.block_span;
            let in_block = rel.slot_count.min(first + layout.block_span) - first;
            let decoded = decode_block(raw, first, in_block, arity)?;
            for (i, (tuple, refs)) in decoded
                .tuples
                .into_iter()
                .zip(decoded.back_refs)
                .enumerate()
            {
                if tuple.is_some() != rel.is_live(first + i as u32) {
                    return Err(corrupt(format!(
                        "presence bitmap disagrees with block {b} of relation {id}"
                    )));
                }
                if !refs.is_empty() {
                    links.push((Rid::new(id, first + i as u32), refs));
                }
                slots.push(tuple);
            }
        }
        db.restore_relation_slots(id, slots)?;
        if db.table(id).len() as u64 != rel.live_count {
            return Err(corrupt(format!(
                "relation {id} restored {} live tuples, directory says {}",
                db.table(id).len(),
                rel.live_count
            )));
        }
    }
    db.install_links(links)?;
    if db.link_count() as u64 != layout.link_count {
        return Err(corrupt(format!(
            "v3 DATA restored {} links, directory says {}",
            db.link_count(),
            layout.link_count
        )));
    }
    Ok(db)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::{ColumnType, RelationSchema};

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
        let restored = decode_database_v3(&bytes).unwrap();
        assert_same(&db, &restored);
        // Deterministic.
        assert_eq!(bytes, encode_database_v3(&restored).unwrap());
    }

    #[test]
    fn v3_roundtrip_tiny_span_multiblock() {
        let db = sample_db();
        let bytes = encode_database_v3_with_span(&db, 7).unwrap();
        let layout = DataLayout::parse(&bytes).unwrap();
        assert!(layout.relations[0].blocks.len() > 3, "multiple blocks");
        let restored = decode_database_v3(&bytes).unwrap();
        assert_same(&db, &restored);
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
        assert!(decode_database_v3(&bad).is_err());
        // Flipped header byte → checksum mismatch.
        let mut torn = bytes.clone();
        torn[HEADER_PREFIX + 4] ^= 0x01;
        assert!(matches!(
            decode_database_v3(&torn),
            Err(StorageError::Corrupt(_))
        ));
        // Flipped payload byte → block or lane checksum mismatch.
        let last = bytes.len() - 2;
        bytes[last] ^= 0x20;
        assert!(matches!(
            decode_database_v3(&bytes),
            Err(StorageError::Corrupt(_))
        ));
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
