//! Packed, lazily-decodable posting storage for the inverted keyword
//! index: the TIDX section of a bundle, and the shared base of a
//! [`TextIndex`] opened from one.
//!
//! A stream that interleaved tokens and posting lists would make reading
//! *any* token cost a full sequential parse. This module stores the
//! postings mmap-style instead: a fixed-size term table and a
//! string heap up front (tiny — read eagerly), with the raw posting
//! triples in one contiguous area behind them (the bulk — read per term
//! on first lookup, from memory or from the file).
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
//! [`TextIndex::open`] validates the whole skeleton (magic, counts,
//! tiling, UTF-8, sort order, no empty list) eagerly, so a torn or
//! corrupt term table is a typed [`StorageError::Corrupt`] before any
//! lookup runs, and it allocates no more than the source holds. The
//! triples area itself is *not* checksummed here: an in-RAM bundle load
//! verifies the enclosing section's whole-payload checksum before it
//! opens the payload held in memory, and a paged open trades that
//! verification for not reading the bytes.

use crate::error::{StorageError, StorageResult};
use crate::text_index::{Posting, TextIndex};
use crate::tuple::{RelationId, Rid};
use banks_util::fxhash::FxHashMap;
use banks_util::mem::{arc_bytes, table_bytes};
use std::alloc::Layout;
use std::io::Write;
use std::sync::{Arc, Mutex};

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
/// Implementations must be cheap to call repeatedly (an opened
/// [`TextIndex`] issues one `read_at` per first-touch term lookup) and
/// thread-safe.
pub trait PostingSource: Send + Sync + std::fmt::Debug {
    /// Total payload length in bytes.
    fn len(&self) -> u64;
    /// Whether the payload is empty.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }
    /// Fill `buf` from `offset` (reads never cross `len`).
    fn read_at(&self, offset: u64, buf: &mut [u8]) -> std::io::Result<()>;
    /// Heap bytes the source owns beyond its own struct: the payload of
    /// an in-memory source, nothing for a file window.
    fn heap_bytes(&self) -> usize;
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
/// order. Lists of an opened base are read one at a time and not
/// cached, so writing never holds the whole base decoded.
pub fn write_packed_postings(index: &TextIndex, w: &mut impl Write) -> StorageResult<()> {
    let io = |e: std::io::Error| StorageError::Corrupt(format!("io: {e}"));
    let mut tokens: Vec<&str> = index.tokens().collect();
    tokens.sort_unstable();

    let heap_len: u64 = tokens.iter().map(|t| t.len() as u64).sum();
    let total: u64 = tokens.iter().map(|t| index.list_len(t) as u64).sum();

    w.write_all(POSTINGS_MAGIC).map_err(io)?;
    w.write_all(&(tokens.len() as u32).to_le_bytes())
        .map_err(io)?;
    w.write_all(&heap_len.to_le_bytes()).map_err(io)?;
    w.write_all(&total.to_le_bytes()).map_err(io)?;

    let (mut str_off, mut post_off) = (0u32, 0u64);
    for token in &tokens {
        let count = index.list_len(token) as u32;
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
        for p in index.list(token, false).iter() {
            w.write_all(&p.rid.relation.0.to_le_bytes()).map_err(io)?;
            w.write_all(&p.rid.slot.to_le_bytes()).map_err(io)?;
            w.write_all(&p.column.to_le_bytes()).map_err(io)?;
        }
    }
    Ok(())
}

/// The base of an opened [`TextIndex`]: term table and string heap
/// resident, posting lists fetched from the [`PostingSource`] on first
/// lookup and cached after. A lookup shares the cached `Arc` with the
/// caller, so a list a reader holds stays valid whether or not the cache
/// keeps it; the cache never evicts today.
pub(crate) struct LazyTextIndex {
    source: Arc<dyn PostingSource>,
    table: Box<[TermEntry]>,
    heap: Box<[u8]>,
    triples_base: u64,
    total_postings: u64,
    cache: Mutex<FxHashMap<u32, Arc<[Posting]>>>,
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
    /// Nothing is allocated before the header's sizes are checked to
    /// add up to the source's length.
    pub(crate) fn open(source: Arc<dyn PostingSource>) -> StorageResult<LazyTextIndex> {
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
            if entry.post_count == 0 {
                return Err(corrupt("packed postings: a term without postings".into()));
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
    fn fetch(&self, idx: u32) -> Arc<[Posting]> {
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
        decode_triples(&raw).collect()
    }

    /// Postings for `token`, from the cache or read off the source, and
    /// cached then if `keep`; `None` for a token the index does not hold.
    /// A miss reads and decodes the list with no lock held, so a slow read
    /// stalls no lookup of another term; if two threads miss on one term,
    /// the list cached first is kept.
    pub(crate) fn list(&self, token: &str, keep: bool) -> Option<Arc<[Posting]>> {
        let idx = self.find(token)? as u32;
        if let Some(list) = self.cache.lock().expect("postings cache").get(&idx) {
            return Some(Arc::clone(list));
        }
        let list = self.fetch(idx);
        if !keep {
            return Some(list);
        }
        let mut cache = self.cache.lock().expect("postings cache");
        Some(Arc::clone(cache.entry(idx).or_insert(list)))
    }

    /// Length of `token`'s list, from the term table (0 if absent).
    pub(crate) fn list_len(&self, token: &str) -> usize {
        self.find(token)
            .map_or(0, |i| self.table[i].post_count as usize)
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

    /// Heap bytes this base owns: the source's allocation and payload
    /// (the whole section for an in-memory source, nothing for a file
    /// window), the term table, the string heap, and the cache.
    pub(crate) fn memory_bytes(&self) -> usize {
        let (_, _, cached) = self.cache_stats();
        arc_bytes(Layout::for_value(&*self.source))
            + self.source.heap_bytes()
            + self.table.len() * std::mem::size_of::<TermEntry>()
            + self.heap.len()
            + cached
    }

    /// `(cached terms, total terms, cache bytes)` for storage stats
    /// reporting. The bytes are the cache's buckets plus each cached
    /// list's `Arc` allocation.
    pub(crate) fn cache_stats(&self) -> (usize, usize, usize) {
        let cache = self.cache.lock().expect("postings cache");
        let lists: usize = cache
            .values()
            .map(|list| arc_bytes(Layout::for_value::<[Posting]>(list)))
            .sum();
        let bytes = table_bytes::<(u32, Arc<[Posting]>)>(cache.capacity()) + lists;
        (cache.len(), self.table.len(), bytes)
    }
}

fn decode_triples(raw: &[u8]) -> impl Iterator<Item = Posting> + '_ {
    raw.chunks_exact(TRIPLE_LEN).map(|c| Posting {
        rid: Rid::new(
            RelationId(u32::from_le_bytes(c[0..4].try_into().expect("4 bytes"))),
            u32::from_le_bytes(c[4..8].try_into().expect("4 bytes")),
        ),
        column: u32::from_le_bytes(c[8..12].try_into().expect("4 bytes")),
    })
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    /// A [`PostingSource`] over an in-memory payload.
    #[derive(Debug, Clone)]
    pub(crate) struct MemSource(pub Box<[u8]>);

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

        fn heap_bytes(&self) -> usize {
            self.0.len()
        }
    }
    use crate::catalog::Database;
    use crate::schema::{ColumnType, RelationSchema};
    use crate::tokenizer::Tokenizer;
    use crate::value::Value;

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
            assert_eq!(
                lazy.list(token, true).unwrap()[..],
                index.lookup(token)[..],
                "{token}"
            );
        }
        assert!(lazy.list("absent-token", true).is_none());
        // A second lookup is a cache hit: the same shared list.
        let a = lazy.list("mining", true).unwrap();
        let b = lazy.list("mining", true).unwrap();
        assert!(Arc::ptr_eq(&a, &b));
        let (cached, total, bytes) = lazy.cache_stats();
        assert!(cached >= 1 && cached <= total);
        assert!(bytes > 0);
    }

    /// A source whose reads of one byte range wait until released,
    /// announcing each such read first.
    #[derive(Debug)]
    struct GatedSource {
        bytes: MemSource,
        gated_offset: u64,
        entered: std::sync::mpsc::SyncSender<()>,
        release: Mutex<std::sync::mpsc::Receiver<()>>,
    }

    impl PostingSource for GatedSource {
        fn len(&self) -> u64 {
            self.bytes.len()
        }

        fn read_at(&self, offset: u64, buf: &mut [u8]) -> std::io::Result<()> {
            if offset == self.gated_offset {
                self.entered.send(()).expect("test listens");
                self.release.lock().unwrap().recv().expect("test releases");
            }
            self.bytes.read_at(offset, buf)
        }

        fn heap_bytes(&self) -> usize {
            self.bytes.heap_bytes()
        }
    }

    #[test]
    fn a_blocked_fetch_does_not_stall_a_cached_lookup() {
        let index = sample_index();
        let bytes = MemSource(packed(&index).into());
        let probe = LazyTextIndex::open(Arc::new(bytes.clone())).unwrap();
        let mining = &probe.table[probe.find("mining").unwrap()];
        let gated_offset = probe.triples_base + mining.post_off * TRIPLE_LEN as u64;
        let (entered_tx, entered) = std::sync::mpsc::sync_channel(1);
        let (release, release_rx) = std::sync::mpsc::channel();
        let lazy = LazyTextIndex::open(Arc::new(GatedSource {
            bytes,
            gated_offset,
            entered: entered_tx,
            release: Mutex::new(release_rx),
        }))
        .unwrap();
        let query = lazy.list("query", true).unwrap();
        let lazy = &lazy;
        std::thread::scope(|s| {
            let blocked = s.spawn(move || lazy.list("mining", true).unwrap());
            entered.recv().unwrap();
            // The fetch of "mining" is parked inside its read; a lookup
            // of the cached "query" must still answer.
            let (done_tx, done) = std::sync::mpsc::channel();
            s.spawn(move || done_tx.send(lazy.list("query", true).unwrap()).unwrap());
            let again = done.recv_timeout(std::time::Duration::from_secs(10));
            release.send(()).unwrap();
            assert!(
                Arc::ptr_eq(&again.expect("cached lookup stalled"), &query),
                "the cached list"
            );
            assert_eq!(blocked.join().unwrap()[..], index.lookup("mining")[..]);
        });
    }

    #[test]
    fn packed_roundtrip_and_determinism() {
        let index = sample_index();
        let buf = packed(&index);
        let restored = TextIndex::open(Arc::new(MemSource(buf.clone().into()))).unwrap();
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
        assert!(lazy.list("anything", true).is_none());
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

    /// A source that records the longest read it was asked for: every
    /// buffer `open` and a lookup allocate is one such read.
    #[derive(Debug)]
    struct MeasuredSource {
        bytes: MemSource,
        longest_read: std::sync::atomic::AtomicUsize,
    }

    impl PostingSource for MeasuredSource {
        fn len(&self) -> u64 {
            self.bytes.len()
        }

        fn read_at(&self, offset: u64, buf: &mut [u8]) -> std::io::Result<()> {
            self.longest_read
                .fetch_max(buf.len(), std::sync::atomic::Ordering::Relaxed);
            self.bytes.read_at(offset, buf)
        }

        fn heap_bytes(&self) -> usize {
            self.bytes.heap_bytes()
        }
    }

    /// Open `bytes` and, if that succeeds, look every token up. Returns
    /// whether the open succeeded; a panic fails the caller's test.
    /// Every read stays within the source, so no buffer is larger than
    /// the bytes it was opened from.
    fn open_and_read_everything(bytes: Vec<u8>) -> bool {
        let len = bytes.len();
        let source = Arc::new(MeasuredSource {
            bytes: MemSource(bytes.into()),
            longest_read: Default::default(),
        });
        let opened = match LazyTextIndex::open(Arc::clone(&source) as Arc<dyn PostingSource>) {
            Ok(lazy) => {
                let tokens: Vec<String> = lazy.tokens().map(str::to_owned).collect();
                assert_eq!(tokens.len(), lazy.distinct_tokens());
                let mut postings = 0;
                for token in &tokens {
                    postings += lazy.list(token, true).expect("a listed token").len();
                }
                assert_eq!(postings, lazy.posting_count());
                true
            }
            Err(StorageError::Corrupt(_)) => false,
            Err(other) => panic!("untyped failure: {other:?}"),
        };
        let longest = source
            .longest_read
            .load(std::sync::atomic::Ordering::Relaxed);
        assert!(
            longest <= len,
            "read {longest} bytes from a {len}-byte source"
        );
        opened
    }

    /// Write `value` little-endian at `at`.
    fn forge(bytes: &mut [u8], at: usize, value: &[u8]) {
        bytes[at..at + value.len()].copy_from_slice(value);
    }

    #[test]
    fn forged_header_counts_are_refused_before_any_allocation() {
        let buf = packed(&sample_index());
        for count in [u32::MAX, u32::MAX - 1, 1 << 31] {
            let mut bad = buf.clone();
            forge(&mut bad, 8, &count.to_le_bytes());
            assert!(!open_and_read_everything(bad), "token_count {count}");
        }
        for at in [12, 20] {
            for value in [u64::MAX, u64::MAX - 27, u64::MAX / 12 + 1, 1 << 40] {
                let mut bad = buf.clone();
                forge(&mut bad, at, &value.to_le_bytes());
                assert!(!open_and_read_everything(bad), "field at {at} = {value}");
            }
        }
        // A term table row claiming a huge list.
        let mut bad = buf.clone();
        forge(&mut bad, HEADER_LEN + 16, &u32::MAX.to_le_bytes());
        assert!(!open_and_read_everything(bad));
        // A term with no postings, the header and tiling kept consistent.
        let empty_list = {
            let mut b = POSTINGS_MAGIC.to_vec();
            b.extend_from_slice(&1u32.to_le_bytes());
            b.extend_from_slice(&1u64.to_le_bytes());
            b.extend_from_slice(&0u64.to_le_bytes());
            b.extend_from_slice(&[0; 4]);
            b.extend_from_slice(&1u32.to_le_bytes());
            b.extend_from_slice(&[0; 8]);
            b.extend_from_slice(&0u32.to_le_bytes());
            b.push(b'a');
            b
        };
        assert!(!open_and_read_everything(empty_list));
        assert!(open_and_read_everything(buf));
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(512))]

        /// Mutations of a valid payload — flipped and overwritten bytes,
        /// truncations, and header counts forged near their maximum —
        /// open as a typed `Corrupt` or as an index whose every token
        /// reads back, never a panic, and read nothing past the source.
        #[test]
        fn mutated_payloads_open_typed_and_bounded(
            mutations in proptest::collection::vec(
                (0u8..5, proptest::prelude::any::<u64>(), proptest::prelude::any::<u8>()),
                1..4,
            ),
        ) {
            let mut bytes = packed(&sample_index());
            for (kind, at, byte) in mutations {
                if bytes.is_empty() {
                    break;
                }
                let pos = (at % bytes.len() as u64) as usize;
                match kind {
                    0 => bytes[pos] ^= byte.max(1),
                    1 => bytes[pos] = byte,
                    2 => bytes.truncate(pos),
                    3 if bytes.len() >= HEADER_LEN => {
                        let near_max = u64::MAX - u64::from(byte);
                        match at % 3 {
                            0 => forge(&mut bytes, 8, &(near_max as u32).to_le_bytes()),
                            1 => forge(&mut bytes, 12, &near_max.to_le_bytes()),
                            _ => forge(&mut bytes, 20, &near_max.to_le_bytes()),
                        }
                    }
                    _ => bytes.insert(pos, byte),
                }
            }
            open_and_read_everything(bytes);
        }
    }
}
