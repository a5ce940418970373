//! # banks-graph
//!
//! The in-memory graph substrate of BANKS (Bhalotia et al., ICDE 2002).
//!
//! BANKS models the database as a directed graph: tuples are nodes,
//! foreign-key references induce edges (one forward, one backward, §2.2).
//! Queries run *backward expanding search* (§3): one Dijkstra
//! single-source-shortest-path iterator per keyword node, traversing edges
//! in reverse, interleaved through an iterator heap.
//!
//! This crate provides the two pieces that algorithm needs:
//!
//! * [`Graph`]: a compact CSR (compressed sparse row) directed graph with
//!   `u32` node ids, `f64` node weights (prestige) and edge weights
//!   (proximity), plus a reverse CSR so edges can be walked either way.
//!   The representation is deliberately lean — the paper stores nothing per
//!   node but the RID, and notes a "properly tuned" implementation should
//!   use far less than their 120 MB for a 100K-node graph; see
//!   [`Graph::memory_bytes`].
//! * [`Dijkstra`]: a *lazy* shortest-path iterator: each call to
//!   [`Dijkstra::next`] settles and returns the next nearest node. The
//!   iterator exposes [`Dijkstra::peek_dist`] so that many iterators can be
//!   multiplexed on a heap ordered by "distance of the next node it will
//!   output", exactly as in the paper's Figure 3. Its working memory is a
//!   sparse [`DijkstraState`] — one table entry per node it touched — with
//!   a 4-ary distance heap, checked out of a reusable [`SearchArena`] so
//!   steady-state query serving reuses its allocations (see the `arena`
//!   module).
//!
//! ```
//! use banks_graph::{GraphBuilder, Direction};
//!
//! let mut b = GraphBuilder::new();
//! let a = b.add_node(1.0);
//! let c = b.add_node(1.0);
//! let d = b.add_node(2.0);
//! b.add_edge(a, c, 1.0);
//! b.add_edge(c, d, 2.0);
//! let g = b.build();
//!
//! // Walk backwards from d: who can reach d, and how cheaply?
//! let mut it = banks_graph::Dijkstra::new(&g, d, Direction::Reverse);
//! let visits: Vec<_> = it.by_ref().map(|v| (v.node, v.dist)).collect();
//! assert_eq!(visits, vec![(d, 0.0), (c, 2.0), (a, 3.0)]);
//! ```

pub mod arena;
pub mod dijkstra;
pub mod graph;
pub(crate) mod heap;
pub mod patch;
pub mod store;

pub use arena::{CrossScratch, DeadlineToken, DijkstraState, OriginListPool, SearchArena, NIL};
pub use dijkstra::{Dijkstra, Direction, Visit};
pub use graph::{Edges, Graph, GraphBuilder, NodeId};
pub use patch::GraphPatch;
pub use store::{GraphStore, StorageStats};
