//! # tspg-graph
//!
//! Directed **temporal graph** substrate used by every other crate in the
//! workspace.
//!
//! A temporal graph `G = (V, E)` consists of vertices identified by dense
//! integer ids and directed temporal edges `e(u, v, τ)` where `τ` is an
//! integer interaction timestamp (the paper, like most temporal-graph work,
//! assumes UNIX-style integer timestamps).
//!
//! The crate provides:
//!
//! * [`TemporalEdge`], [`VertexId`], [`Timestamp`], [`EdgeId`] — basic types.
//! * [`TimeInterval`] — inclusive query interval `[τ_b, τ_e]` with its span
//!   `θ = τ_e − τ_b + 1`.
//! * [`TemporalGraph`] — immutable CSR-style storage with in/out adjacency
//!   sorted by timestamp, plus a global edge list sorted by timestamp (the
//!   access patterns required by the VUG algorithms), plus a streaming
//!   append path ([`TemporalGraph::extend_with_edges`]) versioned by
//!   [`GraphEpoch`].
//! * [`TemporalGraphBuilder`] — incremental construction with de-duplication.
//! * [`EdgeSet`] / subgraph helpers — canonical edge-set representation used
//!   for upper-bound graphs and for the final temporal simple path graph.
//!   [`PackedEdgeSet`] is its bit-packed, exactly decodable form.
//! * [`io`] — plain-text edge-list reading/writing and Graphviz DOT export.
//! * [`stats`] — summary statistics mirroring Table I of the paper.
//!
//! # Quick example
//!
//! ```
//! use tspg_graph::{TemporalGraphBuilder, TimeInterval};
//!
//! let mut b = TemporalGraphBuilder::new();
//! b.add_edge(0, 1, 2);
//! b.add_edge(1, 2, 3);
//! b.add_edge(2, 3, 7);
//! let g = b.build();
//!
//! assert_eq!(g.num_vertices(), 4);
//! assert_eq!(g.num_edges(), 3);
//! let window = TimeInterval::new(2, 7);
//! assert_eq!(window.span(), 6);
//! assert_eq!(g.project(window).num_edges(), 3);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod builder;
pub mod edgeset;
pub mod error;
pub mod fixtures;
pub mod graph;
pub mod interval;
pub mod io;
pub mod query;
pub mod stats;
pub mod types;

pub use builder::TemporalGraphBuilder;
pub use edgeset::{EdgeSet, PackedEdgeSet};
pub use error::GraphError;
pub use graph::{AdjEntry, GraphEpoch, TemporalGraph};
pub use interval::TimeInterval;
pub use query::Query;
pub use stats::GraphStats;
pub use types::{EdgeId, TemporalEdge, Timestamp, VertexId};
