//! The four workloads and the inputs they are generated from.
//!
//! Every input is a pure function of the workload, the `--seed` and the
//! `--seconds` budget. The datasets themselves are fixed (one generator
//! seed per dataset, like the paper's fixed datasets); the seed picks the
//! queries and the ingested edges. Work is fixed rather than timed: the
//! query counts below are sized from throughputs measured on the code the
//! benchmark was written against, so a run takes about `--seconds` there
//! and a faster program simply finishes sooner.

use tspg_datasets::registry::{find, Scale};
use tspg_datasets::workload::{
    generate_edge_stream, generate_fanout_workload, generate_repeated_workload,
    generate_workload_batches, EdgeStreamConfig, FanoutWorkloadConfig, RepeatedWorkloadConfig,
};
use tspg_graph::{Query, TemporalEdge, TemporalGraph};

/// Queries per `run_batch_with_stats` call on the batch workloads.
pub const BATCH_SIZE: usize = 500;
/// Answers between two ingests on `serve-live`.
pub const ROUND: usize = 500;
/// Edges per ingested batch.
pub const INGEST_EDGES: usize = 50;
/// Distinct base queries of the `serve-live` catalog (fits the result cache).
pub const LIVE_CATALOG: usize = 256;
/// Distinct base queries of the `serve-burst` catalog (exceeds the result cache).
pub const BURST_CATALOG: usize = 16_384;
/// Requests `serve-burst` keeps outstanding on its one connection; below
/// the server's default per-client quota of 1024.
pub const BURST_WINDOW: usize = 256;
/// Probe ingests timed on workloads that do not ingest while answering:
/// spread over the timed phase on the batch path, after it on
/// `serve-burst`.
pub const PROBE_INGESTS: usize = 40;
/// Warm-up queries sent before the timed phase of a serving workload.
const SERVE_WARMUP: usize = 1_000;

/// Throughputs (queries per second) the work is sized from.
const PAPER_D1_QPS: f64 = 15_000.0;
const PAPER_D9_QPS: f64 = 1_350.0;
const FANOUT_QPS: f64 = 20_000.0;
const LIVE_QPS: f64 = 825.0;
const BURST_QPS: f64 = 17_000.0;

/// Offset of the ingest-batch seeds from the query seeds.
const INGEST_SALT: u64 = 1 << 32;

/// Generator seed of every dataset graph.
const DATASET_SEED: u64 = 0x5eed;

/// A workload of the benchmark.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    /// The paper's protocol through `run_batch_with_stats` on D1 and D9.
    PaperBatch,
    /// Same-source fan-out bursts through `run_batch_with_stats` on D4.
    FanoutBatch,
    /// Skewed repeats with interleaved ingests through `tspg-server`.
    ServeLive,
    /// A saturating request window over a large catalog through `tspg-server`.
    ServeBurst,
}

impl Kind {
    /// Every workload.
    pub const ALL: [Kind; 4] =
        [Kind::PaperBatch, Kind::FanoutBatch, Kind::ServeLive, Kind::ServeBurst];

    /// The workload's name on the command line.
    pub fn name(self) -> &'static str {
        match self {
            Kind::PaperBatch => "paper-batch",
            Kind::FanoutBatch => "fanout-batch",
            Kind::ServeLive => "serve-live",
            Kind::ServeBurst => "serve-burst",
        }
    }

    /// Looks a workload up by name.
    pub fn parse(name: &str) -> Option<Kind> {
        Kind::ALL.into_iter().find(|k| k.name() == name)
    }

    /// `true` for the workloads that go through `tspg-server`.
    pub fn is_serve(self) -> bool {
        matches!(self, Kind::ServeLive | Kind::ServeBurst)
    }

    /// Client connections of a serving workload, one client thread each
    /// (0 on the batch path).
    pub fn connections(self) -> usize {
        match self {
            Kind::ServeLive => 2,
            Kind::ServeBurst => 1,
            Kind::PaperBatch | Kind::FanoutBatch => 0,
        }
    }

    /// Engine worker threads on a machine with `cores` cores: every core
    /// on the batch path, where the one caller waits inside
    /// `run_batch_with_stats`; on the serving path the cores the client
    /// threads leave free, at least one, so that load generator and
    /// engine together ask for no more cores than there are.
    pub fn engine_threads(self, cores: usize) -> usize {
        cores.saturating_sub(self.connections()).max(1)
    }
}

/// A generated edge list: the input of set-up.
#[derive(Clone, Debug)]
pub struct GraphInput {
    /// Registry id of the dataset.
    pub dataset: &'static str,
    /// Vertex count.
    pub num_vertices: usize,
    /// The edges, in canonical order.
    pub edges: Vec<TemporalEdge>,
}

impl GraphInput {
    /// Builds the CSR graph (part of set-up).
    pub fn build(&self) -> TemporalGraph {
        TemporalGraph::from_edges(self.num_vertices, self.edges.clone())
    }
}

/// Queries answered at one graph epoch, followed by an optional ingest.
#[derive(Clone, Debug)]
pub struct Segment {
    /// The queries in submission units: one `run_batch_with_stats` call
    /// each on the batch workloads, one round of requests each on the
    /// serving workloads.
    pub batches: Vec<Vec<Query>>,
    /// Edges ingested once every query of the segment is answered.
    pub ingest_after: Option<Vec<TemporalEdge>>,
}

/// Everything one graph of a workload sees.
#[derive(Clone, Debug)]
pub struct Part {
    /// The generated edge list.
    pub graph: GraphInput,
    /// Epoch segments in order. The first batch of the first segment is
    /// the warm-up: answered and checked but not timed.
    pub segments: Vec<Segment>,
    /// Edge batches ingested one at a time to time ingest on workloads
    /// that do not ingest while answering (see [`PROBE_INGESTS`]).
    pub probe_ingests: Vec<Vec<TemporalEdge>>,
}

impl Part {
    /// Every query in submission order (warm-up included).
    #[cfg(test)]
    pub fn queries(&self) -> impl Iterator<Item = &Query> {
        self.segments.iter().flat_map(|s| s.batches.iter().flatten())
    }

    /// Number of queries (warm-up included).
    pub fn num_queries(&self) -> usize {
        self.segments.iter().flat_map(|s| &s.batches).map(Vec::len).sum()
    }

    /// Number of ingests (interleaved and probe).
    pub fn num_ingests(&self) -> usize {
        self.segments.iter().filter(|s| s.ingest_after.is_some()).count() + self.probe_ingests.len()
    }
}

/// The generated inputs of one run.
#[derive(Clone, Debug)]
pub struct Inputs {
    /// The workload.
    pub kind: Kind,
    /// One part per dataset graph.
    pub parts: Vec<Part>,
}

/// SplitMix64 step: decorrelates seeds derived from nearby integers.
fn mix(seed: u64, salt: u64) -> u64 {
    let mut z = seed ^ salt.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Generates dataset `id` at the small scale; returns it with its default θ.
fn dataset(id: &str) -> (GraphInput, TemporalGraph, i64) {
    let spec = find(id).expect("dataset is in the registry");
    let graph = spec.generate(Scale::small(), DATASET_SEED);
    let input = GraphInput {
        dataset: spec.id,
        num_vertices: graph.num_vertices(),
        edges: graph.edges().to_vec(),
    };
    (input, graph, spec.default_theta)
}

/// `count` batches of [`INGEST_EDGES`] edges between existing vertices, with
/// timestamps spread over the graph's time range. Batch `i` is seeded
/// apart from the queries, which use `seed` itself.
fn ingest_batches(graph: &TemporalGraph, count: usize, seed: u64) -> Vec<Vec<TemporalEdge>> {
    let range = graph.time_range().expect("dataset graphs have edges");
    let config = EdgeStreamConfig::new(1, INGEST_EDGES, range.begin()).with_time_step(range.span());
    (0..count)
        .map(|i| {
            let mut stream =
                generate_edge_stream(graph, &config, mix(seed, INGEST_SALT + i as u64))
                    .expect("dataset graphs have two or more vertices");
            stream.pop().expect("one batch")
        })
        .collect()
}

/// Batches for `seconds × qps`, at least one.
fn batch_count(seconds: f64, qps: f64) -> usize {
    ((seconds * qps / BATCH_SIZE as f64).round() as usize).max(1)
}

/// A batch-workload part: a warm-up batch, the timed batches, then the
/// probe ingests.
fn batch_part(
    input: GraphInput,
    graph: &TemporalGraph,
    batches: Vec<Vec<Query>>,
    seed: u64,
) -> Part {
    Part {
        graph: input,
        segments: vec![Segment { batches, ingest_after: None }],
        probe_ingests: ingest_batches(graph, PROBE_INGESTS, seed),
    }
}

/// Generates the inputs of `kind` for `seed`, sized for `seconds`.
pub fn generate(kind: Kind, seed: u64, seconds: f64) -> Result<Inputs, String> {
    let err = |e: tspg_datasets::workload::WorkloadError| e.to_string();
    let parts = match kind {
        Kind::PaperBatch => {
            // Each dataset gets about half the timed phase.
            let mut parts = Vec::new();
            for (id, qps) in [("D1", PAPER_D1_QPS), ("D9", PAPER_D9_QPS)] {
                let (input, graph, theta) = dataset(id);
                // One batch more for the warm-up.
                let count = batch_count(seconds / 2.0, qps) + 1;
                let batches = generate_workload_batches(
                    &graph,
                    count,
                    BATCH_SIZE,
                    theta,
                    mix(seed, theta as u64),
                )
                .map_err(err)?;
                parts.push(batch_part(input, &graph, batches, seed));
            }
            parts
        }
        Kind::FanoutBatch => {
            let (input, graph, _) = dataset("D4");
            let count = batch_count(seconds, FANOUT_QPS) + 1;
            let batches = (0..count)
                .map(|i| {
                    let config = FanoutWorkloadConfig {
                        end_spread: 6,
                        ..FanoutWorkloadConfig::new(BATCH_SIZE, 40, 8)
                    }
                    .with_begin_jitter(4);
                    generate_fanout_workload(&graph, &config, mix(seed, i as u64))
                })
                .collect::<Result<Vec<_>, _>>()
                .map_err(err)?;
            vec![batch_part(input, &graph, batches, seed)]
        }
        Kind::ServeLive => {
            let (input, graph, theta) = dataset("D4");
            let rounds = ((seconds * LIVE_QPS / ROUND as f64).round() as usize).max(1);
            let config =
                RepeatedWorkloadConfig::new(SERVE_WARMUP + rounds * ROUND, LIVE_CATALOG, theta);
            let stream = generate_repeated_workload(&graph, &config, seed).map_err(err)?;
            let (warmup, timed) = stream.split_at(SERVE_WARMUP);
            let ingests = ingest_batches(&graph, rounds - 1, seed);
            let mut segments: Vec<Segment> = timed
                .chunks(ROUND)
                .zip(ingests.into_iter().map(Some).chain(std::iter::once(None)))
                .map(|(round, ingest_after)| Segment {
                    batches: vec![round.to_vec()],
                    ingest_after,
                })
                .collect();
            segments[0].batches.insert(0, warmup.to_vec());
            vec![Part { graph: input, segments, probe_ingests: Vec::new() }]
        }
        Kind::ServeBurst => {
            let (input, graph, theta) = dataset("D4");
            let timed = ((seconds * BURST_QPS).round() as usize).max(1);
            let config = RepeatedWorkloadConfig::new(SERVE_WARMUP + timed, BURST_CATALOG, theta);
            let stream = generate_repeated_workload(&graph, &config, seed).map_err(err)?;
            let (warmup, timed) = stream.split_at(SERVE_WARMUP);
            let segment =
                Segment { batches: vec![warmup.to_vec(), timed.to_vec()], ingest_after: None };
            let probe_ingests = ingest_batches(&graph, PROBE_INGESTS, seed);
            vec![Part { graph: input, segments: vec![segment], probe_ingests }]
        }
    };
    Ok(Inputs { kind, parts })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;
    use tspg_core::CacheConfig;

    fn distinct_keys<'a>(queries: impl Iterator<Item = &'a Query>) -> usize {
        queries.map(Query::canonical).collect::<HashSet<_>>().len()
    }

    #[test]
    fn serve_live_epochs_fit_the_default_result_cache() {
        let bound = CacheConfig::default().max_entries;
        assert!(LIVE_CATALOG <= bound);
        let inputs = generate(Kind::ServeLive, 7, 4.0).unwrap();
        let part = &inputs.parts[0];
        assert!(part.segments.len() > 1, "ingests split the run into epochs");
        for segment in &part.segments {
            // Everything one epoch asks for fits, so no entry is ever evicted.
            assert!(distinct_keys(segment.batches.iter().flatten()) <= bound);
        }
    }

    #[test]
    fn serve_burst_catalog_exceeds_the_default_result_cache() {
        let bound = CacheConfig::default().max_entries;
        assert!(BURST_CATALOG > bound);
        let inputs = generate(Kind::ServeBurst, 7, 2.0).unwrap();
        assert!(distinct_keys(inputs.parts[0].queries()) > bound);
    }

    #[test]
    fn inputs_are_a_function_of_the_seed() {
        let a = generate(Kind::FanoutBatch, 3, 0.5).unwrap();
        let b = generate(Kind::FanoutBatch, 3, 0.5).unwrap();
        let c = generate(Kind::FanoutBatch, 4, 0.5).unwrap();
        let queries = |i: &Inputs| i.parts[0].queries().copied().collect::<Vec<_>>();
        assert_eq!(queries(&a), queries(&b));
        assert_ne!(queries(&a), queries(&c));
        assert_eq!(a.parts[0].probe_ingests, b.parts[0].probe_ingests);
    }

    #[test]
    fn ingested_edges_stay_inside_the_graph() {
        let inputs = generate(Kind::ServeLive, 1, 2.0).unwrap();
        let part = &inputs.parts[0];
        let graph = part.graph.build();
        let range = graph.time_range().unwrap();
        for edge in part.segments.iter().filter_map(|s| s.ingest_after.as_ref()).flatten() {
            assert!((edge.src as usize) < part.graph.num_vertices);
            assert!((edge.dst as usize) < part.graph.num_vertices);
            assert!(range.contains(edge.time));
        }
    }
}
