//! # banks-pager
//!
//! Out-of-core graph storage for BANKS, following EMBANKS (disk-based
//! BANKS): the graph's segments are serialized as an mmap-able *paged
//! blob* — delta-varint–compressed adjacency segments behind a
//! checksummed segment directory — and served through
//! [`PagedGraphStore`], a [`banks_graph::GraphStore`] backend that pages
//! segments in lazily on first touch into a [`PageCache`] that holds the
//! resident total under a hard memory budget, or decoded whole into a
//! resident graph by [`decode_paged_blob`]. A decoded segment is the
//! [`banks_graph::Segment`] an in-RAM graph holds too: weights stay
//! dictionary-coded (see [`codec`]) and adjacency requests are answered
//! with a coded [`banks_graph::Adjacency`] view.
//!
//! A cold open reads only the directory (O(segments), independent of
//! corpus size); bit-identical search answers to the in-RAM backend are
//! a format invariant (weights round-trip as raw bits, each dictionary
//! entry's log score is computed from the identical `w_min` by the one
//! expression every segment uses), proptest-verified in the workspace
//! test suite.
//!
//! ```
//! use banks_graph::{Graph, GraphBuilder, NodeId};
//! use banks_pager::{encode_paged_blob, PageCache, PagedGraphStore, DEFAULT_SEG_SPAN};
//!
//! let mut b = GraphBuilder::new();
//! let x = b.add_node(1.0);
//! let y = b.add_node(2.0);
//! b.add_edge(x, y, 0.5);
//! let g = b.build();
//!
//! // Round-trip through the paged backend under a tiny budget.
//! let blob = encode_paged_blob(&g, DEFAULT_SEG_SPAN);
//! let store = PagedGraphStore::open_mem(blob.into(), PageCache::new(1 << 16)).unwrap();
//! let paged = Graph::from_store(store);
//! assert_eq!(paged.edge_weight(x, y), Some(0.5));
//! paged.with_out_adjacency(x, |view| g.with_out_adjacency(x, |want| assert_eq!(view, want)));
//! ```

//! The same machinery pages the relational side: [`PagedTupleStore`]
//! serves the v3 DATA section (fixed-span tuple-slot blocks behind a
//! checksummed directory, see `banks_storage::blocks`) lazily into the
//! same [`PageCache`], so `--memory-budget` bounds graph segments and
//! tuple blocks *together*, in one recency order, and neither store can
//! starve the other (see [`budget`]). Both page sizes are fitted to
//! what a query reads, and both pages stay compact while resident: a
//! graph segment spans [`DEFAULT_SEG_SPAN`] nodes (~4.4 KB resident, its
//! weights coded) and a tuple block `banks_storage::BLOCK_SPAN` slots
//! (~5 KB: the encoded payload and a slot index, decoded one slot per
//! read), so an 8 MiB budget holds the ~1 600 pages of a 100K-tuple
//! corpus.

#![forbid(unsafe_code)]

pub mod blob;
pub mod budget;
pub mod codec;
pub mod error;
pub mod store;
pub mod tuples;
pub(crate) mod varint;

pub use banks_graph::DEFAULT_SEG_SPAN;
pub use blob::{encode_paged_blob, ByteSource, Layout};
pub use budget::{CacheStats, Page, PageCache};
pub use error::PagerError;
pub use store::{decode_paged_blob, PagedGraphStore};
pub use tuples::PagedTupleStore;
