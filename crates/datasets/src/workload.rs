//! Query workload generation and the plain-text query-file format.
//!
//! The paper's protocol (Section VI-A): for each dataset generate 1000 random
//! queries `(s, t, [τ_b, τ_e])` with a fixed span θ such that `s` can
//! temporally reach `t` within the interval, and report aggregate costs over
//! the whole batch.
//!
//! For the batch query engine this module additionally provides
//! [`generate_workload_batches`] (reproducible multi-batch workloads, one
//! derived seed per batch), [`generate_repeated_workload`] (Zipf-skewed
//! serving traffic with exact repeats and narrowed-window refinements, the
//! workload shape the engine's result cache and window sharing exploit),
//! [`generate_fanout_workload`] (same-source bursts of many targets over
//! roughly one window) and a textual query-file format
//! shared with the CLI `batch` subcommand: one `source target begin end`
//! quadruple per line, `#`/`%` comments (whole-line or trailing) and CRLF
//! endings accepted — see [`parse_queries`] / [`format_queries`].
//!
//! All generators validate their configuration and graph up front and
//! return a [`WorkloadError`] instead of panicking deep inside the RNG.

use crate::reach::earliest_arrival;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::fmt;
use tspg_graph::io::strip_line_comment;
use tspg_graph::{TemporalEdge, TemporalGraph, TimeInterval, VertexId};

pub use tspg_graph::Query;

/// Why a workload could not be generated.
///
/// The generators used to panic on these conditions deep inside the RNG
/// (`random_range(0..0)` on a zero θ or an edgeless graph) or silently
/// return an empty workload; callers now get a diagnosable error instead,
/// and the CLI `workload` subcommand surfaces it verbatim.
#[derive(Clone, Debug, PartialEq)]
pub enum WorkloadError {
    /// The requested query span θ is not positive.
    InvalidTheta(i64),
    /// The catalog size (`distinct` / `sources`) is zero.
    InvalidCatalog,
    /// A probability parameter is outside `[0, 1]`.
    InvalidProbability {
        /// Name of the offending parameter.
        name: &'static str,
        /// The rejected value.
        value: f64,
    },
    /// The graph has no edges; no window can be anchored.
    EmptyGraph,
    /// The per-query sampling budget was exhausted before a single
    /// reachable `(s, t)` pair was found.
    NoReachableTargets {
        /// Queries requested.
        requested: usize,
        /// Attempts spent per query before giving up.
        attempts: usize,
    },
}

impl fmt::Display for WorkloadError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::InvalidTheta(theta) => {
                write!(f, "query span theta must be at least 1, got {theta}")
            }
            Self::InvalidCatalog => write!(f, "the distinct-query catalog must not be empty"),
            Self::InvalidProbability { name, value } => {
                write!(f, "{name} must be a probability in [0, 1], got {value}")
            }
            Self::EmptyGraph => write!(f, "the graph has no edges to anchor query windows on"),
            Self::NoReachableTargets { requested, attempts } => write!(
                f,
                "no temporally reachable (s, t) pair found for any of {requested} queries \
                 within {attempts} attempts each (graph too sparse for the requested theta?)"
            ),
        }
    }
}

impl std::error::Error for WorkloadError {}

/// Parameters of a workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct WorkloadConfig {
    /// Number of queries to produce.
    pub num_queries: usize,
    /// Query span θ (`τ_e − τ_b + 1`); must be ≥ 1.
    pub theta: i64,
    /// Maximum number of sampling attempts per emitted query before giving
    /// up on the whole workload (prevents infinite loops on graphs with no
    /// temporal connectivity).
    pub max_attempts_per_query: usize,
}

impl WorkloadConfig {
    /// A workload of `num_queries` queries with span `theta`.
    pub fn new(num_queries: usize, theta: i64) -> Self {
        Self { num_queries, theta, max_attempts_per_query: 200 }
    }

    fn validate(&self, graph: &TemporalGraph) -> Result<(), WorkloadError> {
        if self.theta < 1 {
            return Err(WorkloadError::InvalidTheta(self.theta));
        }
        if self.num_queries > 0 && graph.is_empty() {
            return Err(WorkloadError::EmptyGraph);
        }
        Ok(())
    }
}

/// Generates reachability-checked query workloads over a temporal graph.
#[derive(Debug)]
pub struct WorkloadGenerator<'g> {
    graph: &'g TemporalGraph,
    rng: StdRng,
}

impl<'g> WorkloadGenerator<'g> {
    /// Creates a generator over `graph`, deterministic in `seed`.
    pub fn new(graph: &'g TemporalGraph, seed: u64) -> Self {
        Self { graph, rng: StdRng::seed_from_u64(seed) }
    }

    /// Generates up to `config.num_queries` queries.
    ///
    /// Errors on an invalid configuration (θ < 1), an edgeless graph, or
    /// when not even one reachable query could be sampled. Fewer queries
    /// than requested (but at least one) are returned if the graph is so
    /// sparse that the per-query attempt budget runs out mid-workload.
    pub fn generate(&mut self, config: &WorkloadConfig) -> Result<Vec<Query>, WorkloadError> {
        config.validate(self.graph)?;
        let mut queries = Vec::with_capacity(config.num_queries);
        if config.num_queries == 0 {
            return Ok(queries);
        }
        let edges = self.graph.edges();
        'outer: for _ in 0..config.num_queries {
            for _ in 0..config.max_attempts_per_query {
                // Anchor the interval on a random edge so that the window is
                // never placed in a dead region of the timestamp domain.
                let anchor = edges[self.rng.random_range(0..edges.len())];
                let offset = self.rng.random_range(0..config.theta);
                let begin = anchor.time.saturating_sub(offset);
                let window = TimeInterval::new(begin, begin.saturating_add(config.theta - 1));
                let source = anchor.src;
                if let Some(query) = self.pick_target(source, window) {
                    queries.push(query);
                    continue 'outer;
                }
            }
            break;
        }
        if queries.is_empty() {
            return Err(WorkloadError::NoReachableTargets {
                requested: config.num_queries,
                attempts: config.max_attempts_per_query,
            });
        }
        Ok(queries)
    }

    /// Picks a random vertex that `source` temporally reaches within
    /// `window` (other than `source` itself and other than trivial
    /// one-hop-only targets being over-represented: any reachable vertex is
    /// acceptable, chosen uniformly).
    fn pick_target(&mut self, source: VertexId, window: TimeInterval) -> Option<Query> {
        let arrivals = earliest_arrival(self.graph, source, window);
        let reachable: Vec<VertexId> = arrivals
            .iter()
            .enumerate()
            .filter_map(|(v, a)| (a.is_some() && v != source as usize).then_some(v as VertexId))
            .collect();
        if reachable.is_empty() {
            return None;
        }
        let target = reachable[self.rng.random_range(0..reachable.len())];
        Some(Query::new(source, target, window))
    }
}

/// Parameters of a skewed, repeated-query workload (serving traffic).
///
/// Real query-serving traffic is nothing like the paper's uniform random
/// protocol: a few hot queries are asked over and over, and narrower
/// refinements of a hot query (same endpoints, tighter window) are common.
/// This config models that with a Zipf-style rank distribution over a pool
/// of distinct base queries, plus a probability of replacing a repeat with
/// a randomly narrowed sub-window — exactly the shapes the batch engine's
/// result cache (exact repeats) and window sharing (contained windows) are
/// built to exploit.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct RepeatedWorkloadConfig {
    /// Total number of queries to emit.
    pub num_queries: usize,
    /// Number of distinct base queries sampled first (the "catalog").
    pub distinct: usize,
    /// Query span θ of the base queries.
    pub theta: i64,
    /// Zipf exponent: rank `r` (0-based) is drawn with weight
    /// `1 / (r + 1)^skew`. `0.0` is uniform; `~1.0` is classic web-traffic
    /// skew.
    pub skew: f64,
    /// Probability that an emitted repeat narrows its base query's window
    /// to a random sub-interval (same endpoints — a window-sharing
    /// candidate rather than an exact cache hit).
    pub narrowed: f64,
}

impl RepeatedWorkloadConfig {
    /// A workload of `num_queries` drawn from `distinct` base queries with
    /// span `theta`, web-like skew (1.1) and 30% narrowed repeats.
    pub fn new(num_queries: usize, distinct: usize, theta: i64) -> Self {
        Self { num_queries, distinct, theta, skew: 1.1, narrowed: 0.3 }
    }
}

/// Generates a skewed repeated-query workload (see
/// [`RepeatedWorkloadConfig`]), deterministic in `seed`.
///
/// Errors on an invalid configuration (θ < 1, empty catalog, `narrowed`
/// outside `[0, 1]`) or a graph too sparse to generate any base query.
pub fn generate_repeated_workload(
    graph: &TemporalGraph,
    config: &RepeatedWorkloadConfig,
    seed: u64,
) -> Result<Vec<Query>, WorkloadError> {
    if config.distinct == 0 {
        return Err(WorkloadError::InvalidCatalog);
    }
    if !(0.0..=1.0).contains(&config.narrowed) {
        return Err(WorkloadError::InvalidProbability { name: "narrowed", value: config.narrowed });
    }
    let base = generate_workload(graph, config.distinct, config.theta, seed)?;
    // Cumulative Zipf weights over the base ranks; binary search per draw.
    let mut cumulative = Vec::with_capacity(base.len());
    let mut total = 0.0f64;
    for rank in 0..base.len() {
        total += 1.0 / ((rank + 1) as f64).powf(config.skew);
        cumulative.push(total);
    }
    let mut rng = StdRng::seed_from_u64(seed ^ 0x5eed_cafe_f00d_d00d);
    let mut queries = Vec::with_capacity(config.num_queries);
    for _ in 0..config.num_queries {
        let needle = rng.random::<f64>() * total;
        let rank = cumulative.partition_point(|&c| c < needle).min(base.len() - 1);
        let q = base[rank];
        if rng.random_bool(config.narrowed) && q.window.span() > 1 {
            // A random strict sub-interval: same endpoints, contained
            // window — answerable from the base query's tspG.
            let begin = rng.random_range(q.window.begin()..=q.window.end());
            let end = rng.random_range(begin..=q.window.end());
            queries.push(Query::new(q.source, q.target, TimeInterval::new(begin, end)));
        } else {
            queries.push(q);
        }
    }
    Ok(queries)
}

/// Parameters of a same-source fan-out workload: bursts of queries sharing
/// one source vertex, differing in target (and optionally in window end
/// and window begin).
///
/// This is a common serving-traffic shape: "where can this account's money
/// have gone in the next hour" / "which hosts did this machine touch during
/// the incident" expand one hot source against many candidate targets over
/// roughly the same window. With `begin_jitter > 0` the emitted begins
/// differ inside a burst.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FanoutWorkloadConfig {
    /// Total number of queries to emit (round-robin across the bursts, so
    /// consecutive batch entries belong to different sources).
    pub num_queries: usize,
    /// Number of distinct source bursts (reachability-checked bases).
    pub sources: usize,
    /// Span θ of each burst's base window; must be ≥ 1.
    pub theta: i64,
    /// Maximum extra timestamps appended to an emitted query's window end.
    /// `0` keeps every end at the burst's base end.
    pub end_spread: i64,
    /// Maximum timestamps an emitted query's window begin slides forward
    /// from the burst's base begin (clamped so the window stays valid).
    /// `0` (the [`FanoutWorkloadConfig::new`] default) keeps every begin
    /// identical.
    pub begin_jitter: i64,
}

impl FanoutWorkloadConfig {
    /// A workload of `num_queries` over `sources` bursts with span `theta`,
    /// a half-span end spread and no begin jitter.
    pub fn new(num_queries: usize, sources: usize, theta: i64) -> Self {
        Self { num_queries, sources, theta, end_spread: (theta / 2).max(0), begin_jitter: 0 }
    }

    /// The same workload with begins jittered forward by up to `jitter`
    /// timestamps (negative values are treated as 0).
    pub fn with_begin_jitter(mut self, jitter: i64) -> Self {
        self.begin_jitter = jitter.max(0);
        self
    }
}

/// Generates a same-source fan-out workload (see [`FanoutWorkloadConfig`]),
/// deterministic in `seed`.
///
/// Each burst anchors a window of span `theta` on a random out-edge of a
/// random source (like [`generate_workload`]) and collects every vertex the
/// source temporally reaches within that window; emitted queries cycle
/// through those targets round-robin across bursts, each with the burst's
/// begin slid forward by up to `begin_jitter` timestamps and an end
/// stretched by up to `end_spread` extra timestamps. Only each burst's
/// *base* window is reachability-checked — a jittered begin may start
/// after the walk that made the target reachable, which is a legitimate
/// empty answer (the same contract as the overlapping workload's slid
/// windows).
pub fn generate_fanout_workload(
    graph: &TemporalGraph,
    config: &FanoutWorkloadConfig,
    seed: u64,
) -> Result<Vec<Query>, WorkloadError> {
    if config.sources == 0 {
        return Err(WorkloadError::InvalidCatalog);
    }
    if config.theta < 1 {
        return Err(WorkloadError::InvalidTheta(config.theta));
    }
    if config.num_queries > 0 && graph.is_empty() {
        return Err(WorkloadError::EmptyGraph);
    }
    if config.num_queries == 0 {
        return Ok(Vec::new());
    }
    let mut rng = StdRng::seed_from_u64(seed ^ 0xfa40_7a56_6e0d_cafe);
    let edges = graph.edges();
    // Sample the bursts: (source, base window, reachable targets). A burst
    // keeps the reach-richest of a handful of candidate anchors — fan-out
    // traffic expands *hot* sources, and a burst with one reachable target
    // is just a repeated query, not a fan-out.
    let mut bursts: Vec<(VertexId, TimeInterval, Vec<VertexId>)> = Vec::new();
    let mut attempts_left = 200usize.saturating_mul(config.sources);
    while bursts.len() < config.sources && attempts_left > 0 {
        let mut best: Option<(VertexId, TimeInterval, Vec<VertexId>)> = None;
        for _ in 0..8 {
            if attempts_left == 0 {
                break;
            }
            attempts_left -= 1;
            let anchor = edges[rng.random_range(0..edges.len())];
            let offset = rng.random_range(0..config.theta);
            let begin = anchor.time.saturating_sub(offset);
            let window = TimeInterval::new(begin, begin.saturating_add(config.theta - 1));
            let source = anchor.src;
            let arrivals = earliest_arrival(graph, source, window);
            let targets: Vec<VertexId> = arrivals
                .iter()
                .enumerate()
                .filter_map(|(v, a)| (a.is_some() && v != source as usize).then_some(v as VertexId))
                .collect();
            if !targets.is_empty() && best.as_ref().is_none_or(|(_, _, b)| targets.len() > b.len())
            {
                best = Some((source, window, targets));
            }
        }
        if let Some(burst) = best {
            bursts.push(burst);
        }
    }
    if bursts.is_empty() {
        return Err(WorkloadError::NoReachableTargets {
            requested: config.num_queries,
            attempts: 200usize.saturating_mul(config.sources),
        });
    }
    let mut queries = Vec::with_capacity(config.num_queries);
    for i in 0..config.num_queries {
        let (source, window, targets) = &bursts[i % bursts.len()];
        let target = targets[(i / bursts.len()) % targets.len()];
        let stretch =
            if config.end_spread > 0 { rng.random_range(0..=config.end_spread) } else { 0 };
        let end = window.end().saturating_add(stretch);
        let jitter =
            if config.begin_jitter > 0 { rng.random_range(0..=config.begin_jitter) } else { 0 };
        // The begin never crosses the end: a burst window always stays a
        // valid interval, however large the configured jitter.
        let begin = window.begin().saturating_add(jitter).min(end);
        queries.push(Query::new(*source, target, TimeInterval::new(begin, end)));
    }
    Ok(queries)
}

/// Parameters of a streamed edge-batch feed (live-graph ingestion).
///
/// The serving-side counterpart of the query workloads above: a live
/// deployment does not rebuild its graph from scratch, it appends batches
/// of freshly observed edges (`QueryEngine::ingest`, the server's `ingest`
/// verb) and every batch advances the graph epoch. This config shapes such
/// a feed — `batches` ingestions of `edges_per_batch` edges each, with
/// timestamps advancing by `time_step` per batch so later batches land in
/// later regions of the time domain (the arrival order a real event stream
/// has).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct EdgeStreamConfig {
    /// Number of edge batches to emit (one ingestion / epoch bump each).
    pub batches: usize,
    /// Edges per batch; every edge picks a random `src != dst` pair among
    /// the graph's existing vertices, so the stream densifies the graph
    /// rather than growing its vertex range.
    pub edges_per_batch: usize,
    /// Timestamp of the first batch.
    pub start_time: i64,
    /// Forward shift of the timestamp base between consecutive batches.
    /// Within a batch, edge times are jittered uniformly inside
    /// `[base, base + time_step)`; non-positive steps are clamped to 0
    /// (every edge of every batch lands exactly at `start_time`).
    pub time_step: i64,
}

impl EdgeStreamConfig {
    /// A stream of `batches` batches of `edges_per_batch` edges starting at
    /// `start_time`, advancing one timestamp per batch.
    pub fn new(batches: usize, edges_per_batch: usize, start_time: i64) -> Self {
        Self { batches, edges_per_batch, start_time, time_step: 1 }
    }

    /// The same stream with a different per-batch timestamp shift.
    pub fn with_time_step(mut self, time_step: i64) -> Self {
        self.time_step = time_step;
        self
    }
}

/// Generates a streamed edge-batch feed (see [`EdgeStreamConfig`]),
/// deterministic in `seed`.
///
/// Batch `b`'s timestamps live in `[start_time + b·step, start_time +
/// (b+1)·step)`, so batches arrive in time order even though edges inside a
/// batch are unsorted — exactly the input contract of
/// `TemporalGraph::extend_with_edges`, which re-normalizes on append.
/// Duplicate edges across batches are possible and deliberate (a duplicate
/// batch still bumps the epoch).
///
/// Errors with [`WorkloadError::EmptyGraph`] when the graph has no edges or
/// fewer than two vertices (no `src != dst` pair exists to sample). A
/// stream of zero batches — or of zero-edge batches — is trivially
/// satisfiable and returns `batches` empty batches.
pub fn generate_edge_stream(
    graph: &TemporalGraph,
    config: &EdgeStreamConfig,
    seed: u64,
) -> Result<Vec<Vec<TemporalEdge>>, WorkloadError> {
    if config.batches == 0 || config.edges_per_batch == 0 {
        return Ok(vec![Vec::new(); config.batches]);
    }
    if graph.is_empty() || graph.num_vertices() < 2 {
        return Err(WorkloadError::EmptyGraph);
    }
    let n = graph.num_vertices();
    let step = config.time_step.max(0);
    let mut rng = StdRng::seed_from_u64(seed ^ 0xed9e_57e4_6e0d_feed);
    let mut stream = Vec::with_capacity(config.batches);
    for b in 0..config.batches {
        let base = config.start_time.saturating_add(step.saturating_mul(b as i64));
        let mut batch = Vec::with_capacity(config.edges_per_batch);
        for _ in 0..config.edges_per_batch {
            let src = rng.random_range(0..n);
            // Uniform over the n-1 vertices other than src.
            let mut dst = rng.random_range(0..n - 1);
            if dst >= src {
                dst += 1;
            }
            let time = if step > 1 { base.saturating_add(rng.random_range(0..step)) } else { base };
            batch.push(TemporalEdge::new(src as VertexId, dst as VertexId, time));
        }
        stream.push(batch);
    }
    Ok(stream)
}

/// Convenience wrapper: a deterministic workload over `graph`.
pub fn generate_workload(
    graph: &TemporalGraph,
    num_queries: usize,
    theta: i64,
    seed: u64,
) -> Result<Vec<Query>, WorkloadError> {
    WorkloadGenerator::new(graph, seed).generate(&WorkloadConfig::new(num_queries, theta))
}

/// Generates `num_batches` independent, reproducible query batches of
/// `per_batch` queries each: batch `i` uses a seed derived from `(seed, i)`,
/// so any single batch can be regenerated without generating its
/// predecessors.
pub fn generate_workload_batches(
    graph: &TemporalGraph,
    num_batches: usize,
    per_batch: usize,
    theta: i64,
    seed: u64,
) -> Result<Vec<Vec<Query>>, WorkloadError> {
    (0..num_batches)
        .map(|i| {
            // SplitMix64-style derivation keeps nearby batch indexes from
            // producing correlated RNG streams.
            let mut derived = seed ^ (i as u64).wrapping_mul(0x9e3779b97f4a7c15);
            derived ^= derived >> 30;
            derived = derived.wrapping_mul(0xbf58476d1ce4e5b9);
            generate_workload(graph, per_batch, theta, derived)
        })
        .collect()
}

/// Renders queries in the textual query-file format (one
/// `source target begin end` per line, with a header comment).
pub fn format_queries(queries: &[Query]) -> String {
    let mut out = String::from("# query file: source target begin end\n");
    for q in queries {
        out.push_str(&format!(
            "{} {} {} {}\n",
            q.source,
            q.target,
            q.window.begin(),
            q.window.end()
        ));
    }
    out
}

/// Parses a textual query file.
///
/// One query per line as whitespace-separated `source target begin end`;
/// `#` and `%` open comments (whole lines or trailing); blank lines and CRLF
/// endings are tolerated. Errors name the offending 1-based line.
///
/// Queries come back in [`Query`]'s canonical form: a degenerate line like
/// `4 4 2 7` (`s == t`, empty answer on any window) parses as `4 4 2 2` —
/// re-formatting a parsed file normalizes such lines rather than preserving
/// them byte-for-byte.
pub fn parse_queries(text: &str) -> Result<Vec<Query>, String> {
    let mut queries = Vec::new();
    for (idx, raw) in text.lines().enumerate() {
        let lineno = idx + 1;
        let data = strip_line_comment(raw);
        if data.is_empty() {
            continue;
        }
        let mut fields = data.split_whitespace();
        let mut next = |what: &str| -> Result<&str, String> {
            fields.next().ok_or_else(|| format!("line {lineno}: missing {what}"))
        };
        let source: VertexId = parse_query_field(next("source vertex")?, "source vertex", lineno)?;
        let target: VertexId = parse_query_field(next("target vertex")?, "target vertex", lineno)?;
        let begin: i64 = parse_query_field(next("interval begin")?, "interval begin", lineno)?;
        let end: i64 = parse_query_field(next("interval end")?, "interval end", lineno)?;
        if let Some(extra) = fields.next() {
            return Err(format!(
                "line {lineno}: too many fields (unexpected {extra:?}; \
                 expected `source target begin end`)"
            ));
        }
        let query = Query::try_new(source, target, begin, end)
            .ok_or_else(|| format!("line {lineno}: invalid interval [{begin}, {end}]"))?;
        queries.push(query);
    }
    Ok(queries)
}

fn parse_query_field<T: std::str::FromStr>(
    raw: &str,
    what: &str,
    lineno: usize,
) -> Result<T, String> {
    raw.parse::<T>().map_err(|_| format!("line {lineno}: invalid {what}: {raw:?}"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators::GraphGenerator;
    use crate::reach::is_reachable;
    use tspg_graph::fixtures::figure1_graph;

    #[test]
    fn queries_are_reachable_and_have_requested_span() {
        let g = GraphGenerator::uniform(80, 1200, 40).generate(9);
        let queries = generate_workload(&g, 50, 8, 3).unwrap();
        assert_eq!(queries.len(), 50);
        for q in &queries {
            assert_eq!(q.theta(), 8);
            assert_ne!(q.source, q.target);
            assert!(is_reachable(&g, q.source, q.target, q.window), "{q:?}");
        }
    }

    #[test]
    fn workload_is_deterministic_in_seed() {
        let g = GraphGenerator::uniform(60, 800, 30).generate(2);
        let a = generate_workload(&g, 20, 6, 11).unwrap();
        let b = generate_workload(&g, 20, 6, 11).unwrap();
        let c = generate_workload(&g, 20, 6, 12).unwrap();
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn empty_graph_is_a_workload_error() {
        let g = TemporalGraph::empty(5);
        assert_eq!(generate_workload(&g, 10, 5, 0), Err(WorkloadError::EmptyGraph));
        // Zero queries over any graph are trivially satisfiable.
        assert_eq!(generate_workload(&g, 0, 5, 0), Ok(Vec::new()));
    }

    #[test]
    fn invalid_theta_is_a_workload_error_not_a_panic() {
        let g = figure1_graph();
        // Both of these used to reach `random_range(0..theta)` and panic.
        assert_eq!(generate_workload(&g, 5, 0, 1), Err(WorkloadError::InvalidTheta(0)));
        assert_eq!(generate_workload(&g, 5, -3, 1), Err(WorkloadError::InvalidTheta(-3)));
        let err = generate_workload(&g, 5, 0, 1).unwrap_err();
        assert!(err.to_string().contains("theta"), "{err}");
    }

    #[test]
    fn repeated_workload_validates_its_config() {
        let g = figure1_graph();
        let mut cfg = RepeatedWorkloadConfig::new(10, 0, 5);
        assert_eq!(generate_repeated_workload(&g, &cfg, 0), Err(WorkloadError::InvalidCatalog));
        cfg.distinct = 4;
        cfg.narrowed = 1.5;
        assert!(matches!(
            generate_repeated_workload(&g, &cfg, 0),
            Err(WorkloadError::InvalidProbability { name: "narrowed", .. })
        ));
        cfg.theta = 0;
        cfg.narrowed = 0.3;
        assert_eq!(generate_repeated_workload(&g, &cfg, 0), Err(WorkloadError::InvalidTheta(0)));
    }

    #[test]
    fn figure1_graph_small_workload() {
        let g = figure1_graph();
        let queries = generate_workload(&g, 25, 6, 4).unwrap();
        assert!(!queries.is_empty());
        for q in &queries {
            assert!(is_reachable(&g, q.source, q.target, q.window));
        }
    }

    #[test]
    fn disconnected_graph_exhausts_attempts_gracefully() {
        // Edges exist but every edge's head has no further reachable vertex
        // other than itself; queries can still anchor on single edges.
        let g = TemporalGraph::from_edges(
            4,
            vec![tspg_graph::TemporalEdge::new(0, 1, 5), tspg_graph::TemporalEdge::new(2, 3, 9)],
        );
        let queries = generate_workload(&g, 10, 3, 1).unwrap();
        // Single-hop queries are fine; just ensure no panic and validity.
        assert!(!queries.is_empty());
        for q in &queries {
            assert!(is_reachable(&g, q.source, q.target, q.window));
        }
    }

    #[test]
    fn batches_are_reproducible_and_distinct() {
        let g = GraphGenerator::uniform(60, 800, 30).generate(2);
        let a = generate_workload_batches(&g, 3, 10, 6, 7).unwrap();
        let b = generate_workload_batches(&g, 3, 10, 6, 7).unwrap();
        assert_eq!(a, b);
        assert_eq!(a.len(), 3);
        assert!(a.iter().all(|batch| batch.len() == 10));
        assert_ne!(a[0], a[1], "different batches must not repeat the same queries");
        // Regenerating only the last batch gives the same queries as the
        // full run (batch seeds are independent of predecessors).
        let c = generate_workload_batches(&g, 3, 10, 6, 7).unwrap();
        assert_eq!(a[2], c[2]);
    }

    #[test]
    fn repeated_workload_is_deterministic_and_skewed() {
        let g = GraphGenerator::uniform(60, 800, 30).generate(2);
        let cfg = RepeatedWorkloadConfig::new(300, 12, 6);
        let a = generate_repeated_workload(&g, &cfg, 5).unwrap();
        let b = generate_repeated_workload(&g, &cfg, 5).unwrap();
        assert_eq!(a, b);
        assert_eq!(a.len(), 300);
        assert_ne!(a, generate_repeated_workload(&g, &cfg, 6).unwrap());
        // Zipf skew: the hottest base query dominates a uniform share.
        let base = generate_workload(&g, cfg.distinct, cfg.theta, 5).unwrap();
        let hottest = a.iter().filter(|q| **q == base[0]).count();
        assert!(
            hottest > a.len() / cfg.distinct,
            "rank-0 share {hottest} should beat the uniform share {}",
            a.len() / cfg.distinct
        );
        // Fewer distinct queries than emitted queries: repeats exist.
        let mut distinct = a.clone();
        distinct.sort_by_key(|q| (q.source, q.target, q.window.begin(), q.window.end()));
        distinct.dedup();
        assert!(distinct.len() < a.len());
    }

    #[test]
    fn narrowed_repeats_are_contained_in_their_base_query() {
        let g = GraphGenerator::uniform(60, 800, 30).generate(2);
        let cfg = RepeatedWorkloadConfig { narrowed: 1.0, ..RepeatedWorkloadConfig::new(50, 8, 6) };
        let base = generate_workload(&g, cfg.distinct, cfg.theta, 9).unwrap();
        let queries = generate_repeated_workload(&g, &cfg, 9).unwrap();
        let mut narrowed = 0;
        for q in &queries {
            assert!(base.iter().any(|b| b.covers(q)), "{q:?} must be covered by some base query");
            narrowed += usize::from(base.iter().all(|b| b != q));
        }
        assert!(narrowed > 0, "with narrowed=1.0 some windows must actually shrink");
    }

    #[test]
    fn repeated_workload_on_an_empty_graph_is_an_error() {
        let cfg = RepeatedWorkloadConfig::new(10, 4, 5);
        assert_eq!(
            generate_repeated_workload(&TemporalGraph::empty(4), &cfg, 0),
            Err(WorkloadError::EmptyGraph)
        );
    }

    #[test]
    fn fanout_workload_shares_sources_and_window_begins() {
        let g = GraphGenerator::uniform(60, 800, 30).generate(2);
        let cfg = FanoutWorkloadConfig::new(40, 4, 8);
        let a = generate_fanout_workload(&g, &cfg, 5).unwrap();
        assert_eq!(a, generate_fanout_workload(&g, &cfg, 5).unwrap());
        assert_ne!(a, generate_fanout_workload(&g, &cfg, 6).unwrap());
        assert_eq!(a.len(), 40);
        // Round-robin: queries i and i + sources share source and begin but
        // name a different target (until a burst's target list wraps).
        let mut per_source: std::collections::HashMap<VertexId, Vec<&Query>> =
            std::collections::HashMap::new();
        for q in &a {
            assert_ne!(q.source, q.target);
            assert!(is_reachable(&g, q.source, q.target, q.window), "{q}");
            per_source.entry(q.source).or_default().push(q);
        }
        assert!(per_source.len() <= cfg.sources);
        let mut fanned_out = 0;
        for queries in per_source.values() {
            let begin = queries[0].window.begin();
            assert!(queries.iter().all(|q| q.window.begin() == begin), "same-begin bursts");
            let mut targets: Vec<VertexId> = queries.iter().map(|q| q.target).collect();
            targets.sort_unstable();
            targets.dedup();
            fanned_out += usize::from(targets.len() > 1);
            // Ends stay within the configured spread of the base span.
            for q in queries.iter() {
                assert!(q.theta() >= cfg.theta && q.theta() <= cfg.theta + cfg.end_spread, "{q}");
            }
        }
        assert!(fanned_out > 0, "at least one burst must fan out to several targets");
    }

    #[test]
    fn fanout_begin_jitter_mixes_begins_within_a_burst() {
        let g = GraphGenerator::uniform(60, 800, 30).generate(2);
        let base = FanoutWorkloadConfig::new(40, 4, 8);
        let cfg = base.with_begin_jitter(4);
        assert_eq!(cfg.begin_jitter, 4);
        let a = generate_fanout_workload(&g, &cfg, 5).unwrap();
        assert_eq!(a, generate_fanout_workload(&g, &cfg, 5).unwrap(), "deterministic in seed");
        assert_eq!(a.len(), 40);
        let mut per_source: std::collections::HashMap<VertexId, Vec<&Query>> =
            std::collections::HashMap::new();
        for q in &a {
            assert!(q.window.begin() <= q.window.end(), "{q}");
            per_source.entry(q.source).or_default().push(q);
        }
        // At least one burst must actually contain differing begins —
        // otherwise the knob exercises nothing new.
        let mixed = per_source.values().any(|queries| {
            let begin = queries[0].window.begin();
            queries.iter().any(|q| q.window.begin() != begin)
        });
        assert!(mixed, "begin_jitter=4 must produce mixed begins in some burst");
        // Begins only ever slide forward, and by at most the jitter bound.
        let bases = {
            let plain = generate_fanout_workload(&g, &base, 5).unwrap();
            let mut begins: std::collections::HashMap<VertexId, i64> =
                std::collections::HashMap::new();
            for q in &plain {
                begins.entry(q.source).or_insert(q.window.begin());
            }
            begins
        };
        for q in &a {
            if let Some(&base_begin) = bases.get(&q.source) {
                assert!(q.window.begin() >= base_begin, "{q}");
                assert!(q.window.begin() <= base_begin + cfg.begin_jitter, "{q}");
            }
        }
        // Negative jitter clamps to the no-jitter behavior.
        assert_eq!(base.with_begin_jitter(-3).begin_jitter, 0);
    }

    #[test]
    fn fanout_workload_zero_spread_repeats_identical_windows() {
        let g = GraphGenerator::uniform(60, 800, 30).generate(2);
        let cfg = FanoutWorkloadConfig { end_spread: 0, ..FanoutWorkloadConfig::new(20, 2, 6) };
        let queries = generate_fanout_workload(&g, &cfg, 9).unwrap();
        for q in &queries {
            assert_eq!(q.theta(), 6);
        }
    }

    #[test]
    fn fanout_workload_validates_its_config() {
        let g = figure1_graph();
        let bad_sources = FanoutWorkloadConfig { sources: 0, ..FanoutWorkloadConfig::new(8, 2, 6) };
        assert_eq!(
            generate_fanout_workload(&g, &bad_sources, 0),
            Err(WorkloadError::InvalidCatalog)
        );
        let bad_theta = FanoutWorkloadConfig { theta: 0, ..FanoutWorkloadConfig::new(8, 2, 6) };
        assert_eq!(
            generate_fanout_workload(&g, &bad_theta, 0),
            Err(WorkloadError::InvalidTheta(0))
        );
        assert_eq!(
            generate_fanout_workload(
                &TemporalGraph::empty(3),
                &FanoutWorkloadConfig::new(8, 2, 6),
                0
            ),
            Err(WorkloadError::EmptyGraph)
        );
        assert_eq!(
            generate_fanout_workload(&g, &FanoutWorkloadConfig::new(0, 2, 6), 0),
            Ok(Vec::new())
        );
    }

    #[test]
    fn edge_stream_batches_advance_in_time_and_stay_in_range() {
        let g = GraphGenerator::uniform(40, 300, 20).generate(3);
        let cfg = EdgeStreamConfig::new(5, 8, 25).with_time_step(4);
        let stream = generate_edge_stream(&g, &cfg, 7).unwrap();
        assert_eq!(stream, generate_edge_stream(&g, &cfg, 7).unwrap(), "deterministic in seed");
        assert_ne!(stream, generate_edge_stream(&g, &cfg, 8).unwrap());
        assert_eq!(stream.len(), 5);
        for (b, batch) in stream.iter().enumerate() {
            assert_eq!(batch.len(), 8);
            let base = 25 + 4 * b as i64;
            for e in batch {
                assert_ne!(e.src, e.dst);
                assert!((e.src as usize) < g.num_vertices(), "{e:?}");
                assert!((e.dst as usize) < g.num_vertices(), "{e:?}");
                assert!(e.time >= base && e.time < base + 4, "{e:?} outside batch {b}'s slot");
            }
        }
        // Ingesting the whole stream matches the one-shot build of the union.
        let mut live = g.clone();
        let mut all = g.edges().to_vec();
        for batch in &stream {
            live.extend_with_edges(batch);
            all.extend_from_slice(batch);
        }
        let fresh = TemporalGraph::from_edges(g.num_vertices(), all);
        assert_eq!(live.edges(), fresh.edges());
        assert_eq!(live.epoch().value(), 5);
    }

    #[test]
    fn edge_stream_validates_its_config() {
        let cfg = EdgeStreamConfig::new(3, 4, 0);
        assert_eq!(
            generate_edge_stream(&TemporalGraph::empty(5), &cfg, 0),
            Err(WorkloadError::EmptyGraph)
        );
        let one_vertex = TemporalGraph::from_edges(1, vec![tspg_graph::TemporalEdge::new(0, 0, 1)]);
        assert_eq!(generate_edge_stream(&one_vertex, &cfg, 0), Err(WorkloadError::EmptyGraph));
        let g = figure1_graph();
        assert_eq!(generate_edge_stream(&g, &EdgeStreamConfig::new(0, 4, 0), 0), Ok(Vec::new()));
        assert_eq!(
            generate_edge_stream(&g, &EdgeStreamConfig::new(2, 0, 0), 0),
            Ok(vec![Vec::new(), Vec::new()])
        );
        // A non-positive step clamps: every edge lands at start_time.
        let flat = generate_edge_stream(&g, &EdgeStreamConfig::new(3, 2, 9).with_time_step(-2), 1)
            .unwrap();
        assert!(flat.iter().flatten().all(|e| e.time == 9));
    }

    #[test]
    fn query_file_roundtrip() {
        let g = figure1_graph();
        let queries = generate_workload(&g, 12, 6, 4).unwrap();
        let text = format_queries(&queries);
        let parsed = parse_queries(&text).unwrap();
        assert_eq!(parsed, queries);
    }

    #[test]
    fn query_file_tolerates_comments_and_crlf() {
        let text = "# header\r\n0 7 2 7\r\n\r\n2 7 3 6 % trailing note\r\n% footer\r\n";
        let parsed = parse_queries(text).unwrap();
        assert_eq!(parsed.len(), 2);
        assert_eq!(parsed[0], Query::new(0, 7, TimeInterval::new(2, 7)));
        assert_eq!(parsed[1], Query::new(2, 7, TimeInterval::new(3, 6)));
    }

    #[test]
    fn query_file_errors_carry_line_numbers() {
        let err = parse_queries("0 7 2 7\n0 x 2 7\n").unwrap_err();
        assert!(err.contains("line 2"), "{err}");
        assert!(err.contains("target"), "{err}");
        let err = parse_queries("0 7 2\n").unwrap_err();
        assert!(err.contains("line 1"), "{err}");
        assert!(err.contains("interval end"), "{err}");
        let err = parse_queries("0 7 2 7 9\n").unwrap_err();
        assert!(err.contains("too many fields"), "{err}");
        let err = parse_queries("0 7 9 2\n").unwrap_err();
        assert!(err.contains("invalid interval"), "{err}");
    }
}
