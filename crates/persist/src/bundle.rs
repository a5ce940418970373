//! Full-system snapshot bundles: one file holding everything a server
//! needs to answer queries — catalog + schemas, table tuples, text-index
//! postings, the CSR graph, ranking parameters, and the publication
//! epoch. Version 3 lays the file out for *out-of-core* serving: every
//! section sits at a directory-recorded offset, and the three bulky
//! sections (tuples, postings, graph) use formats that can be served
//! straight off the file — [`open_bundle_paged`] — instead of decoded
//! front-to-back.
//!
//! ## Version 3 layout (all integers little-endian)
//!
//! ```text
//! magic           "BNKSBNDL"                        8 bytes
//! version         u32  (= 3)                        4
//! section_count   u32  (= 4)                        4
//! directory       4 × 32 bytes                      per section:
//!                                                     magic     [u8; 8]
//!                                                     offset    u64  (from file start)
//!                                                     len       u64
//!                                                     checksum  u64  (stream over payload)
//! header checksum u64                               stream over everything above
//! BNKSMETA payload                                  epoch, score params, graph config
//! BNKSDATA payload                                  banks_storage::blocks v3 DATA section
//! BNKSTIDX payload                                  banks_storage::postings (packed, lazy-readable)
//! zero padding to a 4096 boundary
//! BNKSGRPH payload                                  banks_pager::encode_paged_blob
//! ```
//!
//! The directory + header checksum let any consumer locate and verify a
//! section with one small positioned read — no sequential frame walk.
//! The graph payload is the `banks-pager` paged blob: 4096-aligned so
//! its 64-byte-aligned internal segments stay aligned on disk, directly
//! mmap-able, and openable by [`banks_pager::PagedGraphStore`] without
//! touching the segment payloads. The DATA payload is the v3 tuple
//! section of `banks_storage::blocks`: catalog text, liveness bitmaps,
//! and PK→slot lanes behind a checksummed directory, with tuples in
//! fixed-span slot blocks that [`banks_pager::PagedTupleStore`] pages in
//! on first touch. A *full* load still verifies every section's
//! whole-payload checksum; a *paged* open verifies the bundle header,
//! the (few-dozen-byte) meta payload, and the internal checksummed
//! directories of the data, postings, and graph sections, trading
//! whole-payload verification of the lazy sections for not reading
//! their bytes (payload corruption there is still caught — per-segment
//! and per-block checksums at page-in, skeleton validation at open).
//!
//! Version 3 is the only format read or written. Every reader goes
//! through one header check — length, magic, version, then directory —
//! so a short, foreign, or older file is a typed error, never a panic.
//! A file from before version 3 is [`PersistError::BadVersion`]; it can
//! be rebuilt from its corpus with `banks snapshot save`.
//!
//! Saving goes through [`banks_util::fs::atomic_write`]: temp file,
//! fsync, rename, directory fsync. A bundle either exists completely at
//! its final path or not at all.
//!
//! The meta section persists the two configuration groups that shape
//! *derived* data — [`ScoreParams`] (result ranking, the cache-key
//! fingerprint) and [`GraphConfig`] (edge weights, prestige mode).
//! On load they overwrite the corresponding sections of the caller's
//! base config, so a recovered server ranks exactly like the one that
//! wrote the bundle even if its defaults drifted; matching/search knobs
//! stay caller-controlled (they are per-query, not baked into state).

use crate::error::{PersistError, PersistResult};
use banks_core::{
    Banks, BanksConfig, CombineMode, EdgeScoreMode, GraphConfig, NodeScoreMode, NodeWeightMode,
    ScoreParams, TupleGraph,
};
use banks_graph::fxhash::FxHasher;
use banks_graph::Graph;
use banks_pager::{ByteSource, PageCache, PagedGraphStore, PagedTupleStore};
use banks_storage::postings::{self, LazyTextIndex, PostingSource};
use banks_storage::{blocks, Database, TextIndex};
use std::fs::File;
use std::hash::Hasher;
use std::io::{Read, Seek, SeekFrom, Write};
use std::os::unix::fs::FileExt;
use std::path::Path;
use std::sync::Arc;

/// File magic.
pub const BUNDLE_MAGIC: &[u8; 8] = b"BNKSBNDL";
/// The one format version written and read.
pub const BUNDLE_VERSION: u32 = 3;

const SECTION_META: &[u8; 8] = b"BNKSMETA";
const SECTION_DATA: &[u8; 8] = b"BNKSDATA";
const SECTION_TIDX: &[u8; 8] = b"BNKSTIDX";
const SECTION_GRPH: &[u8; 8] = b"BNKSGRPH";
const SECTION_MAGICS: [&[u8; 8]; 4] = [SECTION_META, SECTION_DATA, SECTION_TIDX, SECTION_GRPH];

/// magic + version + section_count.
const PREFIX_LEN: usize = 8 + 4 + 4;
const DIR_ENTRY_LEN: usize = 32;
/// Whole header region: prefix + directory + header checksum.
const HEADER_LEN: usize = PREFIX_LEN + SECTION_MAGICS.len() * DIR_ENTRY_LEN + 8;
/// The graph payload starts on a page boundary so its internal 64-byte
/// segment alignment is alignment on disk too (mmap-friendly).
const GRAPH_ALIGN: u64 = 4096;

/// Refuse sections longer than this while decoding (64 GiB) — corrupt
/// length prefixes must fail fast, not attempt the allocation.
const MAX_SECTION_LEN: u64 = 1 << 36;

/// What the meta section carries.
#[derive(Debug, Clone, PartialEq)]
pub struct BundleMeta {
    /// Publication epoch of the snapshotted state.
    pub epoch: u64,
    /// Ranking parameters active when the bundle was written.
    pub score: ScoreParams,
    /// Graph-construction parameters the CSR section was derived under.
    pub graph: GraphConfig,
}

/// Whole-stream checksum over a byte range: four independent Fx lanes
/// striped across 32-byte blocks, folded into one word at the end. The
/// single-lane Fx fold is a serial dependency chain (~4 cycles per 8
/// bytes — ~0.4 ms on a multi-MiB bundle, pure latency); four lanes run
/// in parallel execution ports and verify the same megabytes ~4× faster.
/// Save and load both use this definition, so it *is* the format — it
/// covers the header region and each section payload. Bytes may arrive
/// in any chunking ([`StreamChecksum::update`]): a section written
/// piece by piece sums like the whole slice.
#[derive(Debug, Clone, Default)]
struct StreamChecksum {
    lanes: [u64; 4],
    /// A partial 32-byte block carried to the next update.
    carry: [u8; 32],
    carry_len: usize,
}

impl StreamChecksum {
    const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

    fn block(&mut self, block: &[u8]) {
        for (i, lane) in self.lanes.iter_mut().enumerate() {
            let word = u64::from_le_bytes(block[i * 8..(i + 1) * 8].try_into().expect("8 bytes"));
            *lane = (lane.rotate_left(5) ^ word).wrapping_mul(Self::SEED);
        }
    }

    fn update(&mut self, mut bytes: &[u8]) {
        if self.carry_len > 0 {
            let take = (32 - self.carry_len).min(bytes.len());
            self.carry[self.carry_len..self.carry_len + take].copy_from_slice(&bytes[..take]);
            self.carry_len += take;
            bytes = &bytes[take..];
            if self.carry_len < 32 {
                return;
            }
            let carry = self.carry;
            self.block(&carry);
            self.carry_len = 0;
        }
        let mut blocks = bytes.chunks_exact(32);
        for block in &mut blocks {
            self.block(block);
        }
        let rest = blocks.remainder();
        self.carry[..rest.len()].copy_from_slice(rest);
        self.carry_len = rest.len();
    }

    fn finish(&self) -> u64 {
        let mut h = FxHasher::default();
        for lane in self.lanes {
            h.write_u64(lane);
        }
        h.write(&self.carry[..self.carry_len]);
        h.finish()
    }
}

fn stream_checksum(bytes: &[u8]) -> u64 {
    let mut sum = StreamChecksum::default();
    sum.update(bytes);
    sum.finish()
}

/// One directory row as written: section magic, offset, length and
/// payload checksum.
type SectionRow = (&'static [u8; 8], u64, u64, u64);

/// The header region — prefix, directory and header checksum — for
/// the four sections in file order.
fn encode_header(rows: &[SectionRow; 4]) -> Vec<u8> {
    let mut header = Vec::with_capacity(HEADER_LEN);
    header.extend_from_slice(BUNDLE_MAGIC);
    header.extend_from_slice(&BUNDLE_VERSION.to_le_bytes());
    header.extend_from_slice(&(SECTION_MAGICS.len() as u32).to_le_bytes());
    for (magic, offset, len, checksum) in rows {
        header.extend_from_slice(*magic);
        header.extend_from_slice(&offset.to_le_bytes());
        header.extend_from_slice(&len.to_le_bytes());
        header.extend_from_slice(&checksum.to_le_bytes());
    }
    let header_checksum = stream_checksum(&header);
    header.extend_from_slice(&header_checksum.to_le_bytes());
    debug_assert_eq!(header.len(), HEADER_LEN);
    header
}

/// The one writer of the layout above: a header-sized placeholder, the
/// four sections in file order (the graph's on a [`GRAPH_ALIGN`]
/// boundary), then the header written back over the placeholder. Each
/// section is filled through this writer's [`Write`] impl, which keeps
/// its length and checksum, so a section can be produced piece by
/// piece and freed before the next one starts.
pub(crate) struct BundleWriter<W: Write + Seek> {
    out: W,
    pos: u64,
    sum: StreamChecksum,
    rows: Vec<SectionRow>,
}

impl<W: Write + Seek> BundleWriter<W> {
    pub(crate) fn new(mut out: W) -> PersistResult<Self> {
        out.write_all(&[0u8; HEADER_LEN])?;
        Ok(BundleWriter {
            out,
            pos: HEADER_LEN as u64,
            sum: StreamChecksum::default(),
            rows: Vec::with_capacity(SECTION_MAGICS.len()),
        })
    }

    /// Write the next section's payload with `fill`.
    pub(crate) fn section<T>(
        &mut self,
        fill: impl FnOnce(&mut Self) -> PersistResult<T>,
    ) -> PersistResult<T> {
        let magic = SECTION_MAGICS[self.rows.len()];
        if magic == SECTION_GRPH {
            let pad = self.pos.next_multiple_of(GRAPH_ALIGN) - self.pos;
            self.out.write_all(&vec![0u8; pad as usize])?;
            self.pos += pad;
        }
        self.sum = StreamChecksum::default();
        let offset = self.pos;
        let made = fill(self)?;
        self.rows
            .push((magic, offset, self.pos - offset, self.sum.finish()));
        Ok(made)
    }

    /// Write the header over the placeholder; returns the file length.
    pub(crate) fn finish(mut self) -> PersistResult<u64> {
        let rows: [SectionRow; 4] = self.rows.try_into().expect("all four sections written");
        self.out.seek(SeekFrom::Start(0))?;
        self.out.write_all(&encode_header(&rows))?;
        Ok(self.pos)
    }
}

impl<W: Write + Seek> Write for BundleWriter<W> {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        let n = self.out.write(buf)?;
        self.sum.update(&buf[..n]);
        self.pos += n as u64;
        Ok(n)
    }

    fn flush(&mut self) -> std::io::Result<()> {
        self.out.flush()
    }
}

/// Write the packed postings of `index` into a section, batching the
/// layout's small fields so the checksum sees large chunks.
pub(crate) fn write_postings_section<W: Write + Seek>(
    index: &TextIndex,
    out: &mut BundleWriter<W>,
) -> PersistResult<()> {
    let mut batched = std::io::BufWriter::with_capacity(1 << 16, out);
    postings::write_packed_postings(index, &mut batched)?;
    batched.flush()?;
    Ok(())
}

pub(crate) fn encode_meta(epoch: u64, config: &BanksConfig) -> Vec<u8> {
    let mut out = Vec::with_capacity(64);
    out.extend_from_slice(&epoch.to_le_bytes());
    let s = config.score;
    out.extend_from_slice(&s.lambda.to_le_bytes());
    out.push(match s.edge_score {
        EdgeScoreMode::Linear => 0,
        EdgeScoreMode::Log => 1,
    });
    out.push(match s.node_score {
        NodeScoreMode::Linear => 0,
        NodeScoreMode::Log => 1,
    });
    out.push(match s.combine {
        CombineMode::Additive => 0,
        CombineMode::Multiplicative => 1,
    });
    let g = &config.graph;
    match g.node_weight {
        NodeWeightMode::Indegree => {
            out.push(0);
            out.extend_from_slice(&0u64.to_le_bytes());
            out.extend_from_slice(&0f64.to_le_bytes());
        }
        NodeWeightMode::Uniform => {
            out.push(1);
            out.extend_from_slice(&0u64.to_le_bytes());
            out.extend_from_slice(&0f64.to_le_bytes());
        }
        NodeWeightMode::AuthorityTransfer {
            iterations,
            damping,
        } => {
            out.push(2);
            out.extend_from_slice(&(iterations as u64).to_le_bytes());
            out.extend_from_slice(&damping.to_le_bytes());
        }
    }
    out.extend_from_slice(&g.default_similarity.to_le_bytes());
    out.push(g.indegree_backward_weights as u8);
    out
}

fn decode_meta(bytes: &[u8]) -> PersistResult<BundleMeta> {
    let need = 8 + 8 + 3 + 1 + 8 + 8 + 8 + 1;
    if bytes.len() != need {
        return Err(PersistError::Malformed(format!(
            "meta section is {} bytes, expected {need}",
            bytes.len()
        )));
    }
    let mut at = 0usize;
    let u64_at = |at: &mut usize| {
        let v = u64::from_le_bytes(bytes[*at..*at + 8].try_into().expect("8 bytes"));
        *at += 8;
        v
    };
    let epoch = u64_at(&mut at);
    let lambda = f64::from_bits(u64_at(&mut at));
    let tag = |b: u8, what: &str, hi: u8| -> PersistResult<u8> {
        if b > hi {
            return Err(PersistError::Malformed(format!("bad {what} tag {b}")));
        }
        Ok(b)
    };
    let edge = match tag(bytes[at], "edge-score", 1)? {
        0 => EdgeScoreMode::Linear,
        _ => EdgeScoreMode::Log,
    };
    let node = match tag(bytes[at + 1], "node-score", 1)? {
        0 => NodeScoreMode::Linear,
        _ => NodeScoreMode::Log,
    };
    let combine = match tag(bytes[at + 2], "combine", 1)? {
        0 => CombineMode::Additive,
        _ => CombineMode::Multiplicative,
    };
    at += 3;
    let weight_tag = tag(bytes[at], "node-weight", 2)?;
    at += 1;
    let iterations = u64_at(&mut at) as usize;
    let damping = f64::from_bits(u64_at(&mut at));
    let node_weight = match weight_tag {
        0 => NodeWeightMode::Indegree,
        1 => NodeWeightMode::Uniform,
        _ => NodeWeightMode::AuthorityTransfer {
            iterations,
            damping,
        },
    };
    let default_similarity = f64::from_bits(u64_at(&mut at));
    let indegree_backward_weights = bytes[at] != 0;
    Ok(BundleMeta {
        epoch,
        score: ScoreParams {
            lambda,
            edge_score: edge,
            node_score: node,
            combine,
        },
        graph: GraphConfig {
            node_weight,
            default_similarity,
            indegree_backward_weights,
        },
    })
}

/// Serialize `banks` (stamped as `epoch`) into `out` — always version 3.
///
/// The DATA section goes through [`blocks::encode_database_v3`], which
/// is copy-on-write for a lazily-opened database: tuple blocks and PK
/// lanes untouched since the snapshot was opened are copied raw from
/// the backing store, so publishing an ingest epoch rewrites only the
/// blocks that epoch touched.
pub fn write_bundle(banks: &Banks, epoch: u64, out: impl Write + Seek) -> PersistResult<()> {
    let data = blocks::encode_database_v3(banks.db())?;
    let grph =
        banks_pager::encode_paged_blob(banks.tuple_graph().graph(), banks_pager::DEFAULT_SEG_SPAN);
    write_bundle_sections(banks, epoch, &data, &grph, out)
}

/// Assemble a version-3 bundle around an already encoded v3 DATA
/// section and paged graph blob of `banks` — how [`write_bundle`]
/// finishes, and how a bundle is produced at page spans other than the
/// defaults (readers take both spans from the sections' own headers).
pub fn write_bundle_sections(
    banks: &Banks,
    epoch: u64,
    data: &[u8],
    grph: &[u8],
    out: impl Write + Seek,
) -> PersistResult<()> {
    let mut bundle = BundleWriter::new(out)?;
    bundle.section(|w| Ok(w.write_all(&encode_meta(epoch, banks.config()))?))?;
    bundle.section(|w| Ok(w.write_all(data)?))?;
    bundle.section(|w| write_postings_section(banks.text_index(), w))?;
    bundle.section(|w| Ok(w.write_all(grph)?))?;
    bundle.finish()?;
    Ok(())
}

/// Atomically write the bundle to `path` (temp file + fsync + rename).
pub fn save_bundle(banks: &Banks, epoch: u64, path: &Path) -> PersistResult<()> {
    save_atomically(path, |w| write_bundle(banks, epoch, w))
}

/// Run `write` on the temp file of an [`banks_util::fs::atomic_write`]
/// to `path`: the bundle exists completely at `path`, or not at all.
pub(crate) fn save_atomically<T>(
    path: &Path,
    write: impl FnOnce(&mut std::io::BufWriter<File>) -> PersistResult<T>,
) -> PersistResult<T> {
    let mut made = None;
    banks_util::fs::atomic_write(path, |w| {
        made = Some(write(w).map_err(|e| match e {
            PersistError::Io(io) => io,
            other => std::io::Error::other(other.to_string()),
        })?);
        Ok(())
    })
    .map_err(PersistError::Io)?;
    Ok(made.expect("atomic_write ran the writer"))
}

/// One parsed directory row.
#[derive(Debug, Clone, Copy)]
struct SectionEntry {
    offset: u64,
    len: u64,
    checksum: u64,
}

/// The verified directory: one entry per section, in file order.
struct Directory {
    meta: SectionEntry,
    data: SectionEntry,
    tidx: SectionEntry,
    grph: SectionEntry,
}

/// The one bundle-header check every reader goes through. `header` is
/// the start of a `file_len`-byte file — the whole file, or its first
/// [`HEADER_LEN`] bytes. Checks, in order: enough bytes for magic and
/// version, the magic, `version == 3`, enough bytes for the directory,
/// then the directory itself — header checksum, section order, offset
/// monotonicity, and bounds. Payload checksums are the caller's job (a
/// paged open intentionally skips the two lazy sections').
fn parse_header(header: &[u8], file_len: u64) -> PersistResult<Directory> {
    let short = || {
        PersistError::Malformed(format!(
            "bundle is {file_len} bytes, shorter than its {HEADER_LEN}-byte header"
        ))
    };
    if header.len() < 8 + 4 {
        return Err(short());
    }
    if &header[..8] != BUNDLE_MAGIC {
        return Err(PersistError::BadMagic {
            what: "snapshot bundle",
        });
    }
    let version = u32::from_le_bytes(header[8..12].try_into().expect("4 bytes"));
    if version != BUNDLE_VERSION {
        return Err(PersistError::BadVersion(version));
    }
    if header.len() < HEADER_LEN {
        return Err(short());
    }
    let count = u32::from_le_bytes(header[12..PREFIX_LEN].try_into().expect("4 bytes"));
    if count as usize != SECTION_MAGICS.len() {
        return Err(PersistError::Malformed(format!(
            "bundle declares {count} sections, expected {}",
            SECTION_MAGICS.len()
        )));
    }
    let body = HEADER_LEN - 8;
    let stored = u64::from_le_bytes(header[body..HEADER_LEN].try_into().expect("8 bytes"));
    if stream_checksum(&header[..body]) != stored {
        return Err(PersistError::BadChecksum);
    }
    let mut entries = [SectionEntry {
        offset: 0,
        len: 0,
        checksum: 0,
    }; 4];
    let mut cursor = HEADER_LEN as u64;
    for (i, expected_magic) in SECTION_MAGICS.iter().enumerate() {
        let at = PREFIX_LEN + i * DIR_ENTRY_LEN;
        let row = &header[at..at + DIR_ENTRY_LEN];
        if &row[..8] != *expected_magic {
            return Err(PersistError::Malformed(format!(
                "directory entry {i}: expected section {} found {}",
                String::from_utf8_lossy(*expected_magic),
                String::from_utf8_lossy(&row[..8])
            )));
        }
        let entry = SectionEntry {
            offset: u64::from_le_bytes(row[8..16].try_into().expect("8 bytes")),
            len: u64::from_le_bytes(row[16..24].try_into().expect("8 bytes")),
            checksum: u64::from_le_bytes(row[24..32].try_into().expect("8 bytes")),
        };
        if entry.len > MAX_SECTION_LEN {
            return Err(PersistError::Malformed(format!(
                "section {} length {} is implausible",
                String::from_utf8_lossy(*expected_magic),
                entry.len
            )));
        }
        let end = entry
            .offset
            .checked_add(entry.len)
            .filter(|&e| entry.offset >= cursor && e <= file_len)
            .ok_or_else(|| {
                PersistError::Malformed(format!(
                    "section {} at {}..+{} escapes the file ({} bytes)",
                    String::from_utf8_lossy(*expected_magic),
                    entry.offset,
                    entry.len,
                    file_len
                ))
            })?;
        cursor = end;
        entries[i] = entry;
    }
    if cursor != file_len {
        return Err(PersistError::Malformed(format!(
            "{} trailing byte(s) after the last section",
            file_len - cursor
        )));
    }
    Ok(Directory {
        meta: entries[0],
        data: entries[1],
        tidx: entries[2],
        grph: entries[3],
    })
}

/// Open the bundle at `path` and check its header with one positioned
/// read of at most [`HEADER_LEN`] bytes.
fn open_header(path: &Path) -> PersistResult<(File, Directory)> {
    let file = File::open(path)?;
    let file_len = file.metadata()?.len();
    let mut header = vec![0u8; file_len.min(HEADER_LEN as u64) as usize];
    file.read_exact_at(&mut header, 0)?;
    let dir = parse_header(&header, file_len)?;
    Ok((file, dir))
}

fn verify_section<'a>(bytes: &'a [u8], entry: &SectionEntry) -> PersistResult<&'a [u8]> {
    banks_util::fault::maybe_fault("bundle.section.read")?;
    let payload = &bytes[entry.offset as usize..(entry.offset + entry.len) as usize];
    if stream_checksum(payload) != entry.checksum {
        return Err(PersistError::BadChecksum);
    }
    Ok(payload)
}

fn decode_bundle(bytes: &[u8], base_config: &BanksConfig) -> PersistResult<(Banks, BundleMeta)> {
    let dir = parse_header(bytes, bytes.len() as u64)?;
    // Inter-section gaps (alignment padding) must be zero — every byte
    // of the file is either checksummed payload or provably-dead zeros,
    // so a flipped bit anywhere fails the load.
    let mut cursor = HEADER_LEN as u64;
    for entry in [&dir.meta, &dir.data, &dir.tidx, &dir.grph] {
        if bytes[cursor as usize..entry.offset as usize]
            .iter()
            .any(|&b| b != 0)
        {
            return Err(PersistError::Malformed(
                "nonzero bytes in section alignment padding".into(),
            ));
        }
        cursor = entry.offset + entry.len;
    }
    let meta = decode_meta(verify_section(bytes, &dir.meta)?)?;

    // Checksum + decode the payloads. The three sections are
    // independent until the graph rebinds to the database, so on a
    // multi-core host the text index and graph decode on their own
    // threads while this one takes the database — restore wall-clock is
    // the *max* of the section costs, not their sum. A single-core host
    // decodes sequentially (spawning would only add overhead).
    let decode_data = || -> PersistResult<_> {
        Ok(blocks::decode_database_v3(verify_section(
            bytes, &dir.data,
        )?)?)
    };
    let decode_tidx = || -> PersistResult<_> {
        Ok(postings::read_packed_postings(verify_section(
            bytes, &dir.tidx,
        )?)?)
    };
    let decode_graph = || -> PersistResult<Graph> {
        let payload = verify_section(bytes, &dir.grph)?;
        Ok(PagedGraphStore::decode_full(&ByteSource::Mem(
            payload.into(),
        ))?)
    };
    let parallel = std::thread::available_parallelism().is_ok_and(|n| n.get() > 1);
    let (db, text_index, graph) = if parallel {
        let (db, text_index, graph) = std::thread::scope(|scope| {
            let tidx_handle = scope.spawn(decode_tidx);
            let graph_handle = scope.spawn(decode_graph);
            let db = decode_data();
            let text_index = tidx_handle.join().expect("text-index decode panicked");
            let graph = graph_handle.join().expect("graph decode panicked");
            (db, text_index, graph)
        });
        (db?, text_index?, graph?)
    } else {
        (decode_data()?, decode_tidx()?, decode_graph()?)
    };
    assemble(db, text_index, graph, meta, base_config)
}

fn assemble(
    db: banks_storage::Database,
    text_index: TextIndex,
    graph: Graph,
    meta: BundleMeta,
    base_config: &BanksConfig,
) -> PersistResult<(Banks, BundleMeta)> {
    let tuple_graph = TupleGraph::rebind(&db, graph)?;
    let mut config = base_config.clone();
    config.score = meta.score;
    config.graph = meta.graph.clone();
    let banks = Banks::from_parts(db, config, tuple_graph, text_index)?;
    Ok((banks, meta))
}

/// Deserialize a bundle, assembling a query-ready [`Banks`].
/// `base_config`'s score/graph sections are replaced by the bundle's
/// (see the module docs); everything else is kept.
pub fn read_bundle(
    mut input: impl Read,
    base_config: &BanksConfig,
) -> PersistResult<(Banks, BundleMeta)> {
    let mut bytes = Vec::new();
    input.read_to_end(&mut bytes)?;
    decode_bundle(&bytes, base_config)
}

/// Load a bundle from `path`: one sequential whole-file read, then an
/// in-memory zero-copy decode (see [`read_bundle`]).
pub fn load_bundle(path: &Path, base_config: &BanksConfig) -> PersistResult<(Banks, BundleMeta)> {
    let bytes = std::fs::read(path)?;
    decode_bundle(&bytes, base_config)
}

/// A [`PostingSource`] over a byte window of an open file.
#[derive(Debug)]
struct FileRange {
    file: Arc<File>,
    base: u64,
    len: u64,
}

impl PostingSource for FileRange {
    fn len(&self) -> u64 {
        self.len
    }

    fn read_at(&self, offset: u64, buf: &mut [u8]) -> std::io::Result<()> {
        offset
            .checked_add(buf.len() as u64)
            .filter(|&end| end <= self.len)
            .ok_or_else(|| std::io::Error::other("posting read out of section bounds"))?;
        self.file.read_exact_at(buf, self.base + offset)
    }
}

/// Read the meta section at `entry` off `file` and verify its checksum.
fn read_meta(file: &File, entry: &SectionEntry) -> PersistResult<BundleMeta> {
    let mut buf = vec![0u8; entry.len as usize];
    file.read_exact_at(&mut buf, entry.offset)?;
    if stream_checksum(&buf) != entry.checksum {
        return Err(PersistError::BadChecksum);
    }
    decode_meta(&buf)
}

/// Open the bundle at `path` *paged*: every bulky section serves
/// lazily off the file. Postings page in per term, the graph serves
/// through a [`PagedGraphStore`], and tuples serve through a
/// [`PagedTupleStore`] over the v3 DATA section. The graph and tuple
/// stores keep their decoded pages in one [`PageCache`], so `budget` is
/// a hard bound on their *combined* decoded-resident bytes. Cold-open
/// cost is the meta section plus three checksummed directories —
/// O(segments + blocks), independent of tuple, posting, and edge
/// counts.
pub fn open_bundle_paged(
    path: &Path,
    budget: usize,
    base_config: &BanksConfig,
) -> PersistResult<(Banks, BundleMeta)> {
    let (file, dir) = open_header(path)?;
    let file = Arc::new(file);
    banks_util::fault::maybe_fault("bundle.section.read")?;
    let meta = read_meta(&file, &dir.meta)?;
    let lazy = LazyTextIndex::open(Arc::new(FileRange {
        file: Arc::clone(&file),
        base: dir.tidx.offset,
        len: dir.tidx.len,
    }))?;
    let cache = PageCache::new(budget);
    let store = PagedGraphStore::open_file(
        Arc::clone(&file),
        dir.grph.offset,
        dir.grph.len,
        Arc::clone(&cache),
    )?;
    banks_util::fault::maybe_fault("bundle.section.read")?;
    let tuples =
        PagedTupleStore::open_file(Arc::clone(&file), dir.data.offset, dir.data.len, cache)?;
    let schema_text = tuples.layout().schema_text.clone();
    let db = Database::open_lazy(&schema_text, tuples)?;
    let text_index = TextIndex::from_lazy(Arc::new(lazy));
    assemble(db, text_index, Graph::from_store(store), meta, base_config)
}

/// Read just enough of the bundle at `path` to learn its epoch: the
/// header plus the (few-dozen-byte) meta section, never the bulk
/// payloads. A replication bootstrap streams a downloaded bundle to a
/// temp file, peeks the epoch to pick its final `snapshot-<epoch>`
/// name, and lets the subsequent open do the real validation — so this
/// verifies only the header and the meta section it reads.
pub fn peek_epoch(path: &Path) -> PersistResult<u64> {
    let (file, dir) = open_header(path)?;
    Ok(read_meta(&file, &dir.meta)?.epoch)
}

/// Summary of a bundle's sections, for `banks snapshot inspect`.
#[derive(Debug, Clone)]
pub struct BundleInfo {
    /// The meta section.
    pub meta: BundleMeta,
    /// Bundle format version (always [`BUNDLE_VERSION`]).
    pub version: u32,
    /// Database name.
    pub database: String,
    /// Per-relation `(name, live tuple count)`.
    pub relations: Vec<(String, usize)>,
    /// Total live tuples.
    pub tuples: usize,
    /// Distinct tokens in the text index.
    pub tokens: usize,
    /// Total postings in the text index.
    pub postings: usize,
    /// Graph node count.
    pub nodes: usize,
    /// Graph edge count.
    pub edges: usize,
    /// Section payload sizes in bytes: `(meta, data, text, graph)`.
    pub section_bytes: (u64, u64, u64, u64),
    /// Total file size in bytes.
    pub file_bytes: u64,
}

/// Validate and summarize the bundle at `path`. Every section's
/// checksum is verified — an `Ok` here means the bundle loads. The
/// per-relation tuple counts come straight from the v3 DATA directory
/// (and the graph's node/edge counts from the paged blob's), without
/// decoding a single tuple block or adjacency segment.
pub fn inspect_bundle(path: &Path) -> PersistResult<BundleInfo> {
    let bytes = std::fs::read(path)?;
    let dir = parse_header(&bytes, bytes.len() as u64)?;
    let meta = decode_meta(verify_section(&bytes, &dir.meta)?)?;
    let layout = blocks::DataLayout::parse(verify_section(&bytes, &dir.data)?)?;
    let schema = banks_storage::schema::schema_from_text(&layout.schema_text)?;
    if schema.relation_count() != layout.relations.len() {
        return Err(PersistError::Malformed(format!(
            "schema declares {} relations but the v3 directory carries {}",
            schema.relation_count(),
            layout.relations.len()
        )));
    }
    let text_index = postings::read_packed_postings(verify_section(&bytes, &dir.tidx)?)?;
    let graph_store = banks_pager::PagedGraphStore::open_mem(
        verify_section(&bytes, &dir.grph)?.to_vec().into(),
        PageCache::new(0),
    )?;
    let graph = Graph::from_store(graph_store);
    Ok(BundleInfo {
        version: BUNDLE_VERSION,
        database: schema.name().to_string(),
        relations: schema
            .relations()
            .zip(&layout.relations)
            .map(|(t, r)| (t.schema().name.clone(), r.live_count as usize))
            .collect(),
        tuples: layout.total_live() as usize,
        tokens: text_index.distinct_tokens(),
        postings: text_index.posting_count(),
        nodes: graph.node_count(),
        edges: graph.edge_count(),
        section_bytes: (dir.meta.len, dir.data.len, dir.tidx.len, dir.grph.len),
        file_bytes: bytes.len() as u64,
        meta,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use banks_storage::{ColumnType, Database, RelationSchema, Value};

    fn dblp() -> Database {
        let mut db = Database::new("dblp");
        db.create_relation(
            RelationSchema::builder("Author")
                .column("AuthorId", ColumnType::Text)
                .column("AuthorName", ColumnType::Text)
                .primary_key(&["AuthorId"])
                .build()
                .unwrap(),
        )
        .unwrap();
        db.create_relation(
            RelationSchema::builder("Paper")
                .column("PaperId", ColumnType::Text)
                .column("PaperName", ColumnType::Text)
                .primary_key(&["PaperId"])
                .build()
                .unwrap(),
        )
        .unwrap();
        db.create_relation(
            RelationSchema::builder("Writes")
                .column("AuthorId", ColumnType::Text)
                .column("PaperId", ColumnType::Text)
                .primary_key(&["AuthorId", "PaperId"])
                .foreign_key(&["AuthorId"], "Author")
                .foreign_key(&["PaperId"], "Paper")
                .build()
                .unwrap(),
        )
        .unwrap();
        for (id, name) in [("MohanC", "C. Mohan"), ("SudarshanS", "S. Sudarshan")] {
            db.insert("Author", vec![Value::text(id), Value::text(name)])
                .unwrap();
        }
        db.insert(
            "Paper",
            vec![Value::text("P1"), Value::text("Transaction Recovery")],
        )
        .unwrap();
        for a in ["MohanC", "SudarshanS"] {
            db.insert("Writes", vec![Value::text(a), Value::text("P1")])
                .unwrap();
        }
        db
    }

    fn roundtrip(banks: &Banks, epoch: u64) -> (Banks, BundleMeta) {
        let mut buf = Vec::new();
        write_bundle(banks, epoch, std::io::Cursor::new(&mut buf)).unwrap();
        read_bundle(buf.as_slice(), &BanksConfig::default()).unwrap()
    }

    fn assert_same_answers(a: &Banks, b: &Banks, query: &str) {
        let x = a.search(query).unwrap();
        let y = b.search(query).unwrap();
        assert_eq!(x.len(), y.len());
        for (p, q) in x.iter().zip(&y) {
            assert_eq!(p.tree.signature(), q.tree.signature());
            assert!((p.relevance - q.relevance).abs() < 1e-12);
        }
    }

    #[test]
    fn stream_checksum_ignores_chunking() {
        let bytes: Vec<u8> = (0..1000u32).map(|i| (i * 31 % 251) as u8).collect();
        let whole = stream_checksum(&bytes);
        for chunk in [1, 7, 31, 32, 33, 100, 1000] {
            let mut sum = StreamChecksum::default();
            for piece in bytes.chunks(chunk) {
                sum.update(piece);
            }
            assert_eq!(sum.finish(), whole, "pieces of {chunk}");
        }
    }

    #[test]
    fn bundle_roundtrip_preserves_results_and_epoch() {
        let banks = Banks::new(dblp()).unwrap();
        let (restored, meta) = roundtrip(&banks, 17);
        assert_eq!(meta.epoch, 17);
        assert_eq!(meta.score, banks.config().score);
        assert_same_answers(&banks, &restored, "mohan sudarshan");
        // Graph bit-equality.
        let (g, h) = (banks.tuple_graph().graph(), restored.tuple_graph().graph());
        assert_eq!(g.node_count(), h.node_count());
        assert_eq!(g.edge_count(), h.edge_count());
        for v in g.nodes() {
            assert_eq!(g.node_weight(v), h.node_weight(v));
            assert_eq!(
                g.out_edges(v).collect::<Vec<_>>(),
                h.out_edges(v).collect::<Vec<_>>()
            );
        }
        // Text index equality.
        assert_eq!(
            banks.text_index().posting_count(),
            restored.text_index().posting_count()
        );
    }

    #[test]
    fn bundle_carries_nondefault_ranking_params() {
        let mut config = BanksConfig::default();
        config.score.lambda = 0.7;
        config.score.combine = CombineMode::Multiplicative;
        config.score.edge_score = EdgeScoreMode::Linear;
        config.graph.default_similarity = 3.0;
        let banks = Banks::with_config(dblp(), config.clone()).unwrap();
        let mut buf = Vec::new();
        write_bundle(&banks, 1, std::io::Cursor::new(&mut buf)).unwrap();
        // Load under *default* base config: the bundle's params must win.
        let (restored, meta) = read_bundle(buf.as_slice(), &BanksConfig::default()).unwrap();
        assert_eq!(meta.score, config.score);
        assert_eq!(meta.graph, config.graph);
        assert_eq!(restored.config().score, config.score);
        assert_eq!(restored.config().graph, config.graph);
    }

    #[test]
    fn corruption_and_truncation_detected() {
        let banks = Banks::new(dblp()).unwrap();
        let mut buf = Vec::new();
        write_bundle(&banks, 3, std::io::Cursor::new(&mut buf)).unwrap();

        // Flip one byte anywhere — header, directory, payload, or the
        // alignment padding — and the load must fail; never a silent
        // wrong load.
        for at in [12usize, 40, buf.len() / 2, buf.len() - 20] {
            let mut bad = buf.clone();
            bad[at] ^= 0xff;
            assert!(
                read_bundle(bad.as_slice(), &BanksConfig::default()).is_err(),
                "flip at {at} must not load"
            );
        }
        // Truncation is an error, not a panic.
        let cut = buf.len() - 9;
        assert!(read_bundle(&buf[..cut], &BanksConfig::default()).is_err());
        // Wrong magic / version.
        assert!(matches!(
            read_bundle(&b"NOTABNDL________________"[..], &BanksConfig::default()),
            Err(PersistError::BadMagic { .. })
        ));
        let mut wrong_version = buf.clone();
        wrong_version[8] = 99;
        assert!(matches!(
            read_bundle(wrong_version.as_slice(), &BanksConfig::default()),
            Err(PersistError::BadVersion(99))
        ));
    }

    #[test]
    fn save_and_inspect_on_disk() {
        let banks = Banks::new(dblp()).unwrap();
        let dir = std::env::temp_dir().join(format!("banks_bundle_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("snap.banks");
        save_bundle(&banks, 5, &path).unwrap();
        let info = inspect_bundle(&path).unwrap();
        assert_eq!(info.version, BUNDLE_VERSION);
        assert_eq!(info.meta.epoch, 5);
        assert_eq!(info.database, "dblp");
        assert_eq!(info.tuples, 5);
        assert_eq!(info.nodes, 5);
        assert!(info.postings > 0);
        assert_eq!(info.relations.len(), 3);
        assert!(info.file_bytes > 0);
        let (restored, meta) = load_bundle(&path, &BanksConfig::default()).unwrap();
        assert_eq!(meta.epoch, 5);
        assert_eq!(restored.db().total_tuples(), 5);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn paged_open_matches_full_load() {
        let banks = Banks::new(dblp()).unwrap();
        let dir = std::env::temp_dir().join(format!(
            "banks_bundle_paged_{}_{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("snap.banks");
        save_bundle(&banks, 7, &path).unwrap();

        let (full, _) = load_bundle(&path, &BanksConfig::default()).unwrap();
        let (paged, meta) = open_bundle_paged(&path, 1 << 16, &BanksConfig::default()).unwrap();
        assert_eq!(meta.epoch, 7);
        assert!(paged.text_index().is_lazy());
        // The tuple store is lazy too, and the open itself decoded no
        // tuple block — the O(blocks) cold-open contract.
        let tstats = paged.db().tuple_store_stats().expect("lazy tuple store");
        assert_eq!(tstats.page_ins, 0, "cold open must not decode tuple blocks");
        assert_eq!(tstats.budget_bytes, 1 << 16);
        let stats = paged
            .tuple_graph()
            .graph()
            .storage_stats()
            .expect("paged graph");
        assert!(stats.budget_bytes == 1 << 16);
        assert_same_answers(&full, &paged, "mohan sudarshan");
        assert_same_answers(&full, &paged, "recovery");
        // Search itself never decoded a tuple (it runs on the graph and
        // text index); reading values — what answer rendering does —
        // pages blocks in, and the values match the eager load.
        for (ft, pt) in full.db().relations().zip(paged.db().relations()) {
            for slot in 0..ft.slot_count() as u32 {
                assert_eq!(ft.get(slot).cloned(), pt.get(slot).cloned());
            }
        }
        let tstats = paged.db().tuple_store_stats().unwrap();
        assert!(tstats.page_ins > 0, "value reads must page tuple blocks in");
        let gstats = paged.tuple_graph().graph().storage_stats().unwrap();
        assert!(
            tstats.resident_bytes + gstats.resident_bytes <= 1 << 16,
            "shared budget overshot: tuples {} + graph {}",
            tstats.resident_bytes,
            gstats.resident_bytes
        );
        // The paged graph is bit-identical to the decoded one.
        let (g, h) = (full.tuple_graph().graph(), paged.tuple_graph().graph());
        for v in g.nodes() {
            assert_eq!(g.node_weight(v), h.node_weight(v));
            assert_eq!(g.out_adjacency(v), h.out_adjacency(v));
            assert_eq!(g.in_adjacency(v), h.in_adjacency(v));
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn inspect_counts_come_from_the_v3_directory() {
        let banks = Banks::new(dblp()).unwrap();
        let dir = std::env::temp_dir().join(format!(
            "banks_bundle_inspect_{}_{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("snap.banks");
        save_bundle(&banks, 21, &path).unwrap();
        let info = inspect_bundle(&path).unwrap();
        assert_eq!(info.version, 3);
        assert_eq!(info.database, "dblp");
        assert_eq!(info.tuples, 5);
        assert_eq!(
            info.relations,
            vec![
                ("Author".to_string(), 2),
                ("Paper".to_string(), 1),
                ("Writes".to_string(), 2),
            ]
        );
        assert_eq!(info.nodes, 5);
        assert!(info.edges > 0);
        assert!(info.tokens > 0);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn short_or_older_bundles_are_typed_errors_on_every_entry_point() {
        let banks = Banks::new(dblp()).unwrap();
        let mut valid = Vec::new();
        write_bundle(&banks, 4, std::io::Cursor::new(&mut valid)).unwrap();
        // Every prefix of the header region, then a whole bundle whose
        // version field says 1, 2 or 4.
        let mut rows: Vec<(Vec<u8>, Option<u32>)> = (0..=HEADER_LEN)
            .map(|n| (valid[..n].to_vec(), None))
            .collect();
        for version in [1u32, 2, 4] {
            let mut patched = valid.clone();
            patched[8..12].copy_from_slice(&version.to_le_bytes());
            rows.push((patched, Some(version)));
        }
        let dir = std::env::temp_dir().join(format!(
            "banks_bundle_headers_{}_{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("snap.banks");
        let config = BanksConfig::default();
        for (bytes, version) in &rows {
            std::fs::write(&path, bytes).unwrap();
            let outcomes = [
                (
                    "read_bundle",
                    read_bundle(bytes.as_slice(), &config).map(drop),
                ),
                ("load_bundle", load_bundle(&path, &config).map(drop)),
                (
                    "open_bundle_paged",
                    open_bundle_paged(&path, 1 << 16, &config).map(drop),
                ),
                ("peek_epoch", peek_epoch(&path).map(drop)),
                ("inspect_bundle", inspect_bundle(&path).map(drop)),
            ];
            for (entry, outcome) in outcomes {
                let row = format!("{entry} on {} bytes, version {version:?}", bytes.len());
                match (outcome, version) {
                    (Err(PersistError::BadVersion(v)), Some(version)) if v == *version => {
                        let message = PersistError::BadVersion(v).to_string();
                        assert_eq!(
                            message.contains("banks snapshot save"),
                            v < BUNDLE_VERSION,
                            "{row}: {message}"
                        );
                    }
                    (Err(PersistError::Malformed(_)), None) => {}
                    (other, _) => panic!("{row}: expected a typed error, got {other:?}"),
                }
            }
        }
        std::fs::remove_dir_all(&dir).ok();
    }
}
