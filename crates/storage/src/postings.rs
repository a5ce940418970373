//! Packed, lazily-decodable posting storage for the inverted keyword
//! index — the text-index half of the out-of-core bundle format.
//!
//! A stream that interleaved tokens and posting lists would make reading
//! *any* token cost a full sequential parse. This module stores the
//! postings mmap-style instead: a fixed-size term table and a
//! string heap up front (tiny — read eagerly), with the raw posting
//! triples in one contiguous area behind them (the bulk — left on disk
//! and fetched per term on first lookup).
//!
//! ## Layout (all integers little-endian)
//!
//! ```text
//! magic          "BNKSPST1"                        8 bytes
//! token_count    u32
//! heap_len       u64
//! total_postings u64
//! table          token_count × 20 bytes            str_off u32, str_len u32,
//!                                                  post_off u64, post_count u32
//! heap           heap_len bytes                    UTF-8 token bytes, lex order
//! triples        total_postings × 12 bytes         relation u32, slot u32, column u32
//! ```
//!
//! Tokens are sorted lexicographically and their heap slices tile the
//! heap exactly, so lookup is a binary search over the table comparing
//! heap slices — no hashing, no per-term allocation until a list is
//! actually fetched. `post_off` values are cumulative posting counts;
//! the byte offset of a list is `triples_base + post_off × 12`.
//!
//! [`LazyTextIndex::open`] validates the whole skeleton (magic, counts,
//! tiling, UTF-8, sort order) eagerly, so a torn or corrupt term table
//! is a typed [`StorageError::Corrupt`] before any lookup runs. The
//! triples area itself is *not* checksummed here — the enclosing bundle
//! section carries a whole-payload checksum for full loads, and a paged
//! open trades that verification for not reading the bytes.

use crate::error::{StorageError, StorageResult};
use crate::text_index::{Posting, TextIndex};
use crate::tuple::{RelationId, Rid};
use banks_util::fxhash::FxHashMap;
use std::io::Write;
use std::sync::Mutex;

/// Magic leading a packed postings payload.
pub(crate) const POSTINGS_MAGIC: &[u8; 8] = b"BNKSPST1";

const HEADER_LEN: usize = 8 + 4 + 8 + 8;

fn io_corrupt(e: std::io::Error) -> StorageError {
    StorageError::Corrupt(format!("packed postings read: {e}"))
}
const TABLE_ENTRY_LEN: usize = 20;
const TRIPLE_LEN: usize = 12;

/// Byte-range reads against a packed postings payload, wherever it
/// lives — an in-memory buffer, or a window of an open bundle file.
///
/// Implementations must be cheap to call repeatedly ([`LazyTextIndex`]
/// issues one `read_at` per first-touch term lookup) and thread-safe.
pub trait PostingSource: Send + Sync + std::fmt::Debug {
    /// Total payload length in bytes.
    fn len(&self) -> u64;
    /// Whether the payload is empty.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }
    /// Fill `buf` from `offset` (reads never cross `len`).
    fn read_at(&self, offset: u64, buf: &mut [u8]) -> std::io::Result<()>;
}

/// A [`PostingSource`] over an in-memory buffer.
#[derive(Debug, Clone)]
pub(crate) struct MemSource(pub std::sync::Arc<[u8]>);

impl PostingSource for MemSource {
    fn len(&self) -> u64 {
        self.0.len() as u64
    }

    fn read_at(&self, offset: u64, buf: &mut [u8]) -> std::io::Result<()> {
        let start = usize::try_from(offset)
            .ok()
            .filter(|&s| s.checked_add(buf.len()).is_some_and(|e| e <= self.0.len()))
            .ok_or_else(|| std::io::Error::other("posting read out of bounds"))?;
        buf.copy_from_slice(&self.0[start..start + buf.len()]);
        Ok(())
    }
}

/// One term-table row.
#[derive(Debug, Clone, Copy)]
struct TermEntry {
    str_off: u32,
    str_len: u32,
    /// Cumulative posting count before this term (list starts at
    /// `triples_base + post_off × 12`).
    post_off: u64,
    post_count: u32,
}

/// Serialize `index` in the packed layout above. Deterministic: tokens
/// sorted lexicographically, lists in their stored `(rid, column)`
/// order.
pub fn write_packed_postings(index: &TextIndex, w: &mut impl Write) -> StorageResult<()> {
    let io = |e: std::io::Error| StorageError::Corrupt(format!("io: {e}"));
    let mut tokens: Vec<&str> = index.tokens().collect();
    tokens.sort_unstable();

    let heap_len: u64 = tokens.iter().map(|t| t.len() as u64).sum();
    let total: u64 = tokens.iter().map(|t| index.lookup(t).len() as u64).sum();

    w.write_all(POSTINGS_MAGIC).map_err(io)?;
    w.write_all(&(tokens.len() as u32).to_le_bytes())
        .map_err(io)?;
    w.write_all(&heap_len.to_le_bytes()).map_err(io)?;
    w.write_all(&total.to_le_bytes()).map_err(io)?;

    let (mut str_off, mut post_off) = (0u32, 0u64);
    for token in &tokens {
        let count = index.lookup(token).len() as u32;
        w.write_all(&str_off.to_le_bytes()).map_err(io)?;
        w.write_all(&(token.len() as u32).to_le_bytes())
            .map_err(io)?;
        w.write_all(&post_off.to_le_bytes()).map_err(io)?;
        w.write_all(&count.to_le_bytes()).map_err(io)?;
        str_off += token.len() as u32;
        post_off += u64::from(count);
    }
    for token in &tokens {
        w.write_all(token.as_bytes()).map_err(io)?;
    }
    for token in &tokens {
        for p in index.lookup(token) {
            w.write_all(&p.rid.relation.0.to_le_bytes()).map_err(io)?;
            w.write_all(&p.rid.slot.to_le_bytes()).map_err(io)?;
            w.write_all(&p.column.to_le_bytes()).map_err(io)?;
        }
    }
    Ok(())
}

/// The lazy half of [`TextIndex`]: term table and string heap resident,
/// posting lists fetched from the [`PostingSource`] on first lookup and
/// cached forever after (the cache is append-only — entries are boxed
/// slices whose addresses are stable, which is what lets
/// `LazyTextIndex::lookup` hand out `&[Posting]` borrows of `&self`).
pub struct LazyTextIndex {
    source: std::sync::Arc<dyn PostingSource>,
    table: Box<[TermEntry]>,
    heap: Box<[u8]>,
    triples_base: u64,
    total_postings: u64,
    cache: Mutex<FxHashMap<u32, Box<[Posting]>>>,
}

impl std::fmt::Debug for LazyTextIndex {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LazyTextIndex")
            .field("tokens", &self.table.len())
            .field("total_postings", &self.total_postings)
            .field(
                "cached_terms",
                &self.cache.lock().expect("postings cache").len(),
            )
            .finish()
    }
}

impl LazyTextIndex {
    /// Open a packed postings payload, validating its entire skeleton
    /// (everything except the triples area, which stays on the source).
    pub fn open(source: std::sync::Arc<dyn PostingSource>) -> StorageResult<LazyTextIndex> {
        let corrupt = |m: String| StorageError::Corrupt(m);
        let len = source.len();
        if len < HEADER_LEN as u64 {
            return Err(corrupt("packed postings shorter than header".into()));
        }
        let mut header = [0u8; HEADER_LEN];
        source.read_at(0, &mut header).map_err(io_corrupt)?;
        if &header[..8] != POSTINGS_MAGIC {
            return Err(corrupt("packed postings: bad magic".into()));
        }
        let token_count = u32::from_le_bytes(header[8..12].try_into().expect("4 bytes")) as usize;
        let heap_len = u64::from_le_bytes(header[12..20].try_into().expect("8 bytes"));
        let total = u64::from_le_bytes(header[20..28].try_into().expect("8 bytes"));

        let table_bytes = (token_count as u64)
            .checked_mul(TABLE_ENTRY_LEN as u64)
            .ok_or_else(|| corrupt("packed postings: token count overflows".into()))?;
        let triples_base = (HEADER_LEN as u64)
            .checked_add(table_bytes)
            .and_then(|v| v.checked_add(heap_len))
            .ok_or_else(|| corrupt("packed postings: header sizes overflow".into()))?;
        let triples_bytes = total
            .checked_mul(TRIPLE_LEN as u64)
            .ok_or_else(|| corrupt("packed postings: posting count overflows".into()))?;
        if triples_base.checked_add(triples_bytes) != Some(len) {
            return Err(corrupt(format!(
                "packed postings: {len} bytes on source, header implies {}",
                triples_base as u128 + triples_bytes as u128
            )));
        }

        let mut raw_table = vec![0u8; table_bytes as usize];
        source
            .read_at(HEADER_LEN as u64, &mut raw_table)
            .map_err(io_corrupt)?;
        let mut heap = vec![0u8; heap_len as usize];
        source
            .read_at(HEADER_LEN as u64 + table_bytes, &mut heap)
            .map_err(io_corrupt)?;

        let mut table = Vec::with_capacity(token_count);
        let (mut want_str, mut want_post) = (0u32, 0u64);
        for chunk in raw_table.chunks_exact(TABLE_ENTRY_LEN) {
            let entry = TermEntry {
                str_off: u32::from_le_bytes(chunk[0..4].try_into().expect("4 bytes")),
                str_len: u32::from_le_bytes(chunk[4..8].try_into().expect("4 bytes")),
                post_off: u64::from_le_bytes(chunk[8..16].try_into().expect("8 bytes")),
                post_count: u32::from_le_bytes(chunk[16..20].try_into().expect("4 bytes")),
            };
            if entry.str_off != want_str || entry.post_off != want_post {
                return Err(corrupt("packed postings: term table does not tile".into()));
            }
            want_str = entry
                .str_off
                .checked_add(entry.str_len)
                .filter(|&e| u64::from(e) <= heap_len)
                .ok_or_else(|| corrupt("packed postings: token heap overrun".into()))?;
            want_post += u64::from(entry.post_count);
            table.push(entry);
        }
        if u64::from(want_str) != heap_len || want_post != total {
            return Err(corrupt(
                "packed postings: table totals disagree with header".into(),
            ));
        }
        // Every token must be valid UTF-8 and strictly ascending.
        let mut prev: Option<&str> = None;
        for entry in &table {
            let raw = &heap[entry.str_off as usize..(entry.str_off + entry.str_len) as usize];
            let token = std::str::from_utf8(raw)
                .map_err(|_| corrupt("packed postings: token is not UTF-8".into()))?;
            if prev.is_some_and(|p| p >= token) {
                return Err(corrupt("packed postings: tokens out of order".into()));
            }
            prev = Some(token);
        }

        Ok(LazyTextIndex {
            source,
            table: table.into_boxed_slice(),
            heap: heap.into_boxed_slice(),
            triples_base,
            total_postings: total,
            cache: Mutex::new(FxHashMap::default()),
        })
    }

    fn token_at(&self, i: usize) -> &str {
        let e = &self.table[i];
        let raw = &self.heap[e.str_off as usize..(e.str_off + e.str_len) as usize];
        // UTF-8 validated at open.
        std::str::from_utf8(raw).expect("validated at open")
    }

    fn find(&self, token: &str) -> Option<usize> {
        self.table
            .binary_search_by(|e| {
                let raw = &self.heap[e.str_off as usize..(e.str_off + e.str_len) as usize];
                raw.cmp(token.as_bytes())
            })
            .ok()
    }

    /// Read and decode one term's posting list from the source. A
    /// source failure here is a panic: lookups have no error channel,
    /// and the skeleton was validated at open, so a failure means the
    /// underlying file was truncated or torn *after* open.
    fn fetch(&self, idx: u32) -> Box<[Posting]> {
        let e = &self.table[idx as usize];
        let mut raw = vec![0u8; e.post_count as usize * TRIPLE_LEN];
        self.source
            .read_at(self.triples_base + e.post_off * TRIPLE_LEN as u64, &mut raw)
            .unwrap_or_else(|err| {
                panic!(
                    "posting list for {:?} unreadable (source torn after open): {err}",
                    self.token_at(idx as usize)
                )
            });
        decode_triples(&raw)
    }

    /// Postings for `token`, fetched on first touch and cached.
    pub(crate) fn lookup(&self, token: &str) -> &[Posting] {
        let Some(idx) = self.find(token) else {
            return &[];
        };
        let idx = idx as u32;
        let mut cache = self.cache.lock().expect("postings cache");
        let boxed = cache.entry(idx).or_insert_with(|| self.fetch(idx));
        let (ptr, len) = (boxed.as_ptr(), boxed.len());
        drop(cache);
        // SAFETY: cache entries are inserted once and never removed or
        // replaced, so the boxed slice's heap allocation lives as long
        // as `self`; rehashing moves the Box, not its pointee.
        unsafe { std::slice::from_raw_parts(ptr, len) }
    }

    /// All tokens, in lexicographic order.
    pub(crate) fn tokens(&self) -> impl Iterator<Item = &str> + '_ {
        (0..self.table.len()).map(|i| self.token_at(i))
    }

    /// Number of distinct tokens.
    pub(crate) fn distinct_tokens(&self) -> usize {
        self.table.len()
    }

    /// Total postings across all tokens (from the header, not a scan).
    pub(crate) fn posting_count(&self) -> usize {
        self.total_postings as usize
    }

    /// Resident bytes: table + heap + currently cached posting lists.
    /// (The triples area on the source is *not* resident.)
    pub(crate) fn memory_bytes(&self) -> usize {
        let cached: usize = self
            .cache
            .lock()
            .expect("postings cache")
            .values()
            .map(|v| v.len() * std::mem::size_of::<Posting>())
            .sum();
        self.table.len() * std::mem::size_of::<TermEntry>() + self.heap.len() + cached
    }

    /// `(cached terms, total terms, cached posting bytes)` for storage
    /// stats reporting.
    pub(crate) fn cache_stats(&self) -> (usize, usize, usize) {
        let cache = self.cache.lock().expect("postings cache");
        let bytes = cache
            .values()
            .map(|v| v.len() * std::mem::size_of::<Posting>())
            .sum();
        (cache.len(), self.table.len(), bytes)
    }

    /// Decode everything into eager `(token, list)` pairs — the full
    /// bundle-load path and the mutation path (an index being written
    /// to must be eager). One bulk read of the triples area.
    pub(crate) fn materialize(&self) -> StorageResult<Vec<(String, Vec<Posting>)>> {
        let mut raw = vec![0u8; (self.total_postings as usize) * TRIPLE_LEN];
        self.source
            .read_at(self.triples_base, &mut raw)
            .map_err(io_corrupt)?;
        Ok(self
            .table
            .iter()
            .enumerate()
            .map(|(i, e)| {
                let lo = e.post_off as usize * TRIPLE_LEN;
                let hi = lo + e.post_count as usize * TRIPLE_LEN;
                (
                    self.token_at(i).to_owned(),
                    decode_triples(&raw[lo..hi]).into_vec(),
                )
            })
            .collect())
    }
}

fn decode_triples(raw: &[u8]) -> Box<[Posting]> {
    raw.chunks_exact(TRIPLE_LEN)
        .map(|c| Posting {
            rid: Rid::new(
                RelationId(u32::from_le_bytes(c[0..4].try_into().expect("4 bytes"))),
                u32::from_le_bytes(c[4..8].try_into().expect("4 bytes")),
            ),
            column: u32::from_le_bytes(c[8..12].try_into().expect("4 bytes")),
        })
        .collect()
}

/// Eagerly decode a packed postings payload into a [`TextIndex`] — the
/// full-load counterpart of [`write_packed_postings`].
pub fn read_packed_postings(bytes: &[u8]) -> StorageResult<TextIndex> {
    let lazy = LazyTextIndex::open(std::sync::Arc::new(MemSource(bytes.into())))?;
    Ok(TextIndex::from_postings(lazy.materialize()?))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::Database;
    use crate::schema::{ColumnType, RelationSchema};
    use crate::tokenizer::Tokenizer;
    use crate::value::Value;
    use std::sync::Arc;

    fn sample_index() -> TextIndex {
        let mut db = Database::new("t");
        db.create_relation(
            RelationSchema::builder("Paper")
                .column("PaperId", ColumnType::Text)
                .column("PaperName", ColumnType::Text)
                .primary_key(&["PaperId"])
                .build()
                .unwrap(),
        )
        .unwrap();
        for (id, name) in [
            ("p1", "Temporal Mining of Patterns"),
            ("p2", "Query Optimization Survey"),
            ("p3", "Mining the Query Stream"),
        ] {
            db.insert("Paper", vec![Value::text(id), Value::text(name)])
                .unwrap();
        }
        TextIndex::build(&db, &Tokenizer::new())
    }

    fn packed(index: &TextIndex) -> Vec<u8> {
        let mut buf = Vec::new();
        write_packed_postings(index, &mut buf).unwrap();
        buf
    }

    #[test]
    fn lazy_lookup_matches_eager() {
        let index = sample_index();
        let buf = packed(&index);
        let lazy = LazyTextIndex::open(Arc::new(MemSource(buf.into()))).unwrap();
        assert_eq!(lazy.distinct_tokens(), index.distinct_tokens());
        assert_eq!(lazy.posting_count(), index.posting_count());
        for token in index.tokens() {
            assert_eq!(lazy.lookup(token), index.lookup(token), "{token}");
        }
        assert!(lazy.lookup("absent-token").is_empty());
        // Cached lookups return the same slice.
        let a = lazy.lookup("mining").as_ptr();
        let b = lazy.lookup("mining").as_ptr();
        assert_eq!(a, b);
        let (cached, total, bytes) = lazy.cache_stats();
        assert!(cached >= 1 && cached <= total);
        assert!(bytes > 0);
    }

    #[test]
    fn packed_roundtrip_and_determinism() {
        let index = sample_index();
        let buf = packed(&index);
        let restored = read_packed_postings(&buf).unwrap();
        for token in index.tokens() {
            assert_eq!(restored.lookup(token), index.lookup(token), "{token}");
        }
        assert_eq!(packed(&restored), buf, "deterministic serialization");
    }

    #[test]
    fn empty_index_round_trips() {
        let index = TextIndex::default();
        let buf = packed(&index);
        let lazy = LazyTextIndex::open(Arc::new(MemSource(buf.into()))).unwrap();
        assert_eq!(lazy.distinct_tokens(), 0);
        assert_eq!(lazy.posting_count(), 0);
        assert!(lazy.lookup("anything").is_empty());
    }

    #[test]
    fn corrupt_skeleton_rejected_at_open() {
        let index = sample_index();
        let buf = packed(&index);
        let open = |bytes: Vec<u8>| LazyTextIndex::open(Arc::new(MemSource(bytes.into())));

        let mut bad_magic = buf.clone();
        bad_magic[0] ^= 0xff;
        assert!(open(bad_magic).is_err());

        // Torn: any truncation breaks either the header math or a read.
        for cut in [4usize, HEADER_LEN + 3, buf.len() - 1] {
            assert!(open(buf[..cut].to_vec()).is_err(), "cut at {cut}");
        }

        // A table entry that does not tile.
        let mut untiled = buf.clone();
        untiled[HEADER_LEN] ^= 0x01; // first str_off no longer 0
        assert!(open(untiled).is_err());

        // Posting-count totals out of agreement with the header.
        let mut wrong_total = buf.clone();
        wrong_total[20] ^= 0x01;
        assert!(open(wrong_total).is_err());
    }
}
