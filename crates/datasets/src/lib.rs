//! # tspg-datasets
//!
//! Synthetic temporal graph generators, a dataset registry mirroring the
//! paper's ten real-world graphs (Table I) at laptop scale, and query
//! workload generation.
//!
//! The paper evaluates on SNAP/KONECT graphs (email-Eu-core, sx-mathoverflow,
//! …, wikipedia) with up to 86 M temporal edges. Those datasets cannot be
//! bundled here, so this crate provides generators that reproduce the
//! *shape* that drives the algorithms' behaviour — degree skew, timestamp
//! domain size, density and default query span — under a configurable scale
//! factor. The substitution is documented in `DESIGN.md` (§5).
//!
//! ```
//! use tspg_datasets::{registry, Scale};
//!
//! let specs = registry();
//! assert_eq!(specs.len(), 10);
//! let d1 = specs[0].generate(Scale::tiny(), 42);
//! assert!(d1.num_edges() > 0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod generators;
pub mod reach;
pub mod registry;
pub mod workload;

pub use generators::{generate_transit, GeneratorModel, GraphGenerator};
pub use reach::{earliest_arrival, is_reachable, latest_departure};
pub use registry::{find, registry, DatasetSpec, Scale};
pub use workload::{
    format_queries, generate_edge_stream, generate_fanout_workload, generate_repeated_workload,
    generate_workload, generate_workload_batches, parse_queries, EdgeStreamConfig,
    FanoutWorkloadConfig, Query, RepeatedWorkloadConfig, WorkloadConfig, WorkloadError,
    WorkloadGenerator,
};
