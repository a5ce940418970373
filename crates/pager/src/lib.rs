//! # banks-pager
//!
//! Out-of-core graph storage for BANKS, following EMBANKS (disk-based
//! BANKS): the CSR graph is serialized as an mmap-able *paged blob* —
//! delta-varint–compressed adjacency segments behind a checksummed
//! segment directory — and served through [`PagedGraphStore`], a
//! [`banks_graph::GraphStore`] backend that decodes segments lazily on
//! first touch into a [`PageCache`] that holds the decoded-resident total
//! under a hard memory budget.
//!
//! A cold open reads only the directory (O(segments), independent of
//! corpus size); bit-identical search answers to the in-RAM backend are
//! a format invariant (weights round-trip as raw bits, the log-score
//! lane is recomputed from the identical `w_min`), proptest-verified in
//! the workspace test suite.
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
//! assert_eq!(paged.out_adjacency(x), g.out_adjacency(x));
//! ```

//! The same machinery pages the relational side: [`PagedTupleStore`]
//! serves the v3 DATA section (fixed-span tuple-slot blocks behind a
//! checksummed directory, see `banks_storage::blocks`) lazily into the
//! same [`PageCache`], so `--memory-budget` bounds graph segments and
//! tuple blocks *together*, in one recency order, and neither store can
//! starve the other (see [`budget`]). Both page sizes are fitted to
//! what a query reads: a graph segment spans [`DEFAULT_SEG_SPAN`] nodes
//! (~12 KB decoded) and a tuple block `banks_storage::BLOCK_SPAN` slots
//! (~20 KB), so an 8 MiB budget holds several hundred pages rather than
//! a dozen.

pub mod blob;
pub mod budget;
pub mod codec;
pub mod error;
pub mod store;
pub mod tuples;
pub(crate) mod varint;

pub use blob::{encode_paged_blob, ByteSource, Layout, DEFAULT_SEG_SPAN};
pub use budget::{CacheStats, Page, PageCache};
pub use error::PagerError;
pub use store::PagedGraphStore;
pub use tuples::PagedTupleStore;
