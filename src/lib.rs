//! # tspg-suite
//!
//! Umbrella crate of the temporal simple path graph (tspG) workspace.
//!
//! It re-exports the individual crates under short module names so that the
//! runnable examples (`examples/`) and the cross-crate integration tests
//! (`tests/`) can use a single dependency, and so that downstream users who
//! just want "everything" can depend on one crate:
//!
//! * [`graph`] — temporal graph substrate ([`tspg_graph`]).
//! * [`datasets`] — synthetic dataset registry and workloads
//!   ([`tspg_datasets`]).
//! * [`enumeration`] — temporal simple path enumeration ([`tspg_enum`]).
//! * [`baselines`] — `EPdtTSG` / `EPesTSG` / `EPtgTSG` ([`tspg_baselines`]).
//! * [`core`] — the VUG algorithm ([`tspg_core`]).
//! * [`server`] — resident unix-socket server with admission
//!   micro-batching ([`tspg_server`]).
//!
//! The most common entry point is re-exported at the top level:
//!
//! ```
//! use tspg_suite::prelude::*;
//!
//! let g = figure1_graph();
//! let (s, t, w) = figure1_query();
//! let result = generate_tspg(&g, s, t, w);
//! assert_eq!(result.tspg.num_edges(), 4);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use tspg_baselines as baselines;
pub use tspg_core as core;
pub use tspg_datasets as datasets;
pub use tspg_enum as enumeration;
pub use tspg_graph as graph;
pub use tspg_server as server;

/// Convenient glob import for examples, tests and quick experiments.
pub mod prelude {
    pub use tspg_baselines::{run_ep, EpAlgorithm};
    pub use tspg_core::{
        generate_tspg, generate_tspg_with, ArrivalProfile, BatchStats, CacheConfig, CacheStats,
        QueryEngine, QueryScratch, QuerySpec, SourceFrontier, VugConfig, VugReport, VugResult,
    };
    pub use tspg_datasets::{
        format_queries, generate_edge_stream, generate_fanout_workload, generate_repeated_workload,
        generate_workload, generate_workload_batches, parse_queries, registry, DatasetSpec,
        EdgeStreamConfig, FanoutWorkloadConfig, GraphGenerator, Query, RepeatedWorkloadConfig,
        Scale, WorkloadError,
    };
    pub use tspg_enum::{count_paths, enumerate_paths, naive_tspg, Budget};
    pub use tspg_graph::fixtures::{figure1_graph, figure1_query};
    pub use tspg_graph::{
        EdgeSet, GraphEpoch, GraphStats, TemporalEdge, TemporalGraph, TemporalGraphBuilder,
        TimeInterval, Timestamp, VertexId,
    };
}

#[cfg(test)]
mod tests {
    #[test]
    fn prelude_compiles_and_reexports_work() {
        use crate::prelude::*;
        let g = figure1_graph();
        let (s, t, w) = figure1_query();
        assert_eq!(generate_tspg(&g, s, t, w).tspg.num_edges(), 4);
    }
}
