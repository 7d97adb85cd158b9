//! Batch query engine: one loaded graph, many `(s, t, window)` queries,
//! answered through a **plan → execute → assemble** pipeline with reusable
//! per-worker scratch state and an LRU result cache.
//!
//! The one-shot entry point [`crate::generate_tspg`] allocates every piece
//! of working state — polarity labels, the two upper-bound graphs, the TCV
//! tables, the DFS stacks — afresh per query. Under a query-serving workload
//! that makes throughput allocator-bound long before it is algorithm-bound.
//! [`QueryEngine`] owns the graph once and answers whole batches:
//!
//! 1. **Plan** ([`planner`]): degenerate queries are answered inline and
//!    cached results returned immediately; the rest are deduplicated and
//!    grouped — a query whose window is contained in another query's window
//!    on the same `(s, t)` attaches to that covering unit and reuses its
//!    tspG instead of re-scanning the full graph.
//! 2. **Execute** ([`executor`]): an atomic-cursor work-stealing loop runs
//!    the plan's units across scoped worker threads, each worker reusing a
//!    [`QueryScratch`] arena (zero steady-state allocation) drawn from the
//!    engine's warm pool; once a unit's tspG is published its followers
//!    become individually stealable work items.
//! 3. **Assemble**: results fan back out to the original query order
//!    (`results[i]` answers `queries[i]`, always) and every freshly
//!    computed result populates the [`cache::ResultCache`] for the next
//!    batch.
//!
//! Every unit is one run of the paper's VUG pipeline (QuickUBG → TightUBG
//! → EEV) on the full graph; the engine adds no other sharing layer.
//!
//! Planning, caching and parallelism never change answers — only who
//! computes them. Every result is identical to a one-shot
//! [`crate::generate_tspg_with`] call; the differential tests in
//! `tests/batch_engine.rs` hold the engine to that bit for bit.
//!
//! ```
//! use tspg_core::{QueryEngine, QuerySpec};
//! use tspg_graph::fixtures::{figure1_graph, figure1_query};
//!
//! let (s, t, w) = figure1_query();
//! let engine = QueryEngine::new(figure1_graph());
//! let results = engine.run_batch(&[QuerySpec::new(s, t, w), QuerySpec::new(t, s, w)], 2);
//! assert_eq!(results[0].tspg.num_edges(), 4); // Fig. 1(c)
//! assert!(results[1].tspg.is_empty());
//! ```

pub mod cache;
pub mod executor;
pub mod planner;

use crate::eev::{escaped_edges_verification_scratch, EevScratch};
use crate::polarity::{compute_polarity_into, PolarityScratch, PolarityTimes};
use crate::quick_ubg::quick_upper_bound_graph_into;
use crate::tcv::TcvTables;
use crate::tight_ubg::tight_upper_bound_graph_into;
use crate::vug::{VugConfig, VugReport, VugResult};
use cache::{CacheConfig, CacheStats, ResultCache};
use std::sync::OnceLock;
use std::time::Instant;
use tspg_graph::{EdgeSet, GraphEpoch, TemporalEdge, TemporalGraph, TimeInterval, VertexId};

/// One `(s, t, [τ_b, τ_e])` query of a batch.
///
/// This is the workspace-wide [`tspg_graph::Query`] quadruple under the
/// name the engine API uses — workloads generated by `tspg-datasets` can be
/// passed to [`QueryEngine::run_batch`] without conversion.
pub use tspg_graph::Query as QuerySpec;

/// Per-worker reusable working state of the whole VUG pipeline: polarity
/// labels and their BFS state, the storage of `G_q` and `G_t`, the TCV
/// tables (with their set-buffer pool) and the EEV scratch (edge flags,
/// witness-path buffers, bidirectional-DFS stacks and visited bitmap).
///
/// The first query warms the buffers up; afterwards answering a query
/// allocates nothing but its result.
#[derive(Clone, Debug, Default)]
pub struct QueryScratch {
    polarity: PolarityTimes,
    polarity_scratch: PolarityScratch,
    gq: TemporalGraph,
    gt: TemporalGraph,
    tcv: TcvTables,
    eev: EevScratch,
}

impl QueryScratch {
    /// Creates an empty (cold) scratch arena.
    pub fn new() -> Self {
        Self::default()
    }
}

/// Runs the full VUG pipeline for one query out of `scratch`.
///
/// This is the single implementation of Algorithm 1; the one-shot
/// [`crate::generate_tspg_with`] is a thin wrapper that passes a cold
/// scratch.
pub(crate) fn generate_tspg_scratch(
    graph: &TemporalGraph,
    s: VertexId,
    t: VertexId,
    window: TimeInterval,
    config: &VugConfig,
    scratch: &mut QueryScratch,
) -> VugResult {
    let mut report = VugReport { input_edges: graph.num_edges(), ..VugReport::default() };

    // Degenerate query (the canonical form shared with the planner and the
    // cache key): the tspG of `s == t` is empty on any graph and window.
    if QuerySpec::new(s, t, window).is_degenerate() {
        return VugResult { tspg: EdgeSet::new(), report };
    }

    // Phase 1: QuickUBG (Algorithms 2 + 3).
    let started = Instant::now();
    compute_polarity_into(
        graph,
        s,
        t,
        window,
        &mut scratch.polarity,
        &mut scratch.polarity_scratch,
    );
    quick_upper_bound_graph_into(graph, &scratch.polarity, &mut scratch.gq);
    report.quick_elapsed = started.elapsed();
    report.quick_edges = scratch.gq.num_edges();
    let mut approx_bytes = scratch.polarity.approx_bytes() + scratch.gq.approx_bytes();

    // Phase 2: TightUBG (Algorithms 4 + 5). The ablation path hands `G_q`
    // itself to EEV by reference — no deep copy.
    let started = Instant::now();
    let gt: &TemporalGraph = if config.use_tight_ubg {
        scratch.tcv.recompute(&scratch.gq, s, t);
        tight_upper_bound_graph_into(&scratch.gq, &scratch.tcv, s, t, &mut scratch.gt);
        approx_bytes += scratch.tcv.approx_bytes();
        &scratch.gt
    } else {
        &scratch.gq
    };
    report.tight_elapsed = started.elapsed();
    report.tight_edges = gt.num_edges();
    approx_bytes += gt.approx_bytes();

    // Phase 3: Escaped Edges Verification (Algorithms 6 + 7).
    let started = Instant::now();
    let outcome = escaped_edges_verification_scratch(
        gt,
        s,
        t,
        window,
        config.bidir,
        config.use_tight_ubg,
        &mut scratch.eev,
    );
    report.eev_elapsed = started.elapsed();
    report.eev = outcome.stats;
    report.result_edges = outcome.tspg.num_edges();
    report.result_vertices = outcome.tspg.num_vertices();
    approx_bytes += outcome.tspg.approx_bytes();
    report.approx_bytes = approx_bytes;

    VugResult { tspg: outcome.tspg, report }
}

/// How one batch was answered: the counters of the plan → execute →
/// assemble pipeline. Returned by [`QueryEngine::run_batch_with_stats`].
///
/// `queries == executed_units + shared_answered + dedup_answered +
/// cache_hits + degenerate` always holds: every query is answered exactly
/// one way, and `executed_units` is the number of full-graph pipeline
/// executions.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct BatchStats {
    /// Queries in the batch.
    pub queries: usize,
    /// Full-graph pipeline executions (plan units).
    pub executed_units: usize,
    /// Queries answered by re-running the pipeline on a covering unit's
    /// tspG (containment sharing) rather than on the full graph.
    pub shared_answered: usize,
    /// Queries answered by copying an identical query's result computed in
    /// this very batch.
    pub dedup_answered: usize,
    /// Queries answered straight from the result cache.
    pub cache_hits: usize,
    /// Degenerate (`s == t`) queries answered inline with the empty tspG.
    pub degenerate: usize,
}

impl BatchStats {
    /// Queries answered *without* a full-graph pipeline execution.
    pub fn saved_executions(&self) -> usize {
        self.queries.saturating_sub(self.executed_units)
    }

    /// Snapshot of every counter as `(name, value)` pairs, in declaration
    /// order — the one place the counter names are spelled out for
    /// `key=value` surfaces (the `tspg-server` `stats` verb, log lines,
    /// JSON emitters). Adding a counter to the struct means adding it
    /// here, so such surfaces never silently lag the struct. The trailing
    /// `pipeline_runs` repeats `executed_units` under the name existing
    /// consumers read.
    pub fn key_values(&self) -> [(&'static str, u64); 7] {
        [
            ("queries", self.queries as u64),
            ("executed_units", self.executed_units as u64),
            ("shared_answered", self.shared_answered as u64),
            ("dedup_answered", self.dedup_answered as u64),
            ("cache_hits", self.cache_hits as u64),
            ("degenerate", self.degenerate as u64),
            ("pipeline_runs", self.executed_units as u64),
        ]
    }

    /// Folds another batch's counters into this one (serving loops
    /// aggregate per-batch stats this way).
    pub fn merge(&mut self, other: &BatchStats) {
        self.queries += other.queries;
        self.executed_units += other.executed_units;
        self.shared_answered += other.shared_answered;
        self.dedup_answered += other.dedup_answered;
        self.cache_hits += other.cache_hits;
        self.degenerate += other.degenerate;
    }
}

/// Number of hardware threads, probed once per process.
///
/// `std::thread::available_parallelism` re-reads the scheduler's affinity
/// mask (and cgroup quota) on every call; engines and servers size their
/// pools from it at start-up, so the first answer is cached.
pub fn hardware_threads() -> usize {
    static THREADS: OnceLock<usize> = OnceLock::new();
    *THREADS.get_or_init(|| {
        std::thread::available_parallelism().map(std::num::NonZeroUsize::get).unwrap_or(1)
    })
}

/// A query engine over one loaded temporal graph.
///
/// The engine is `Sync`: one instance can serve many worker threads, each
/// with its own [`QueryScratch`]. [`QueryEngine::run_batch`] does exactly
/// that with scoped threads, and keeps the workers' warmed-up scratches in
/// an internal pool so that a serving loop issuing many batches through one
/// engine pays scratch warm-up only once per worker, not once per batch.
///
/// Batches go through plan → execute → assemble (see the module docs); the
/// per-query [`QueryEngine::run`] is the raw execution primitive used by
/// the executor's workers and bypasses both the planner and the cache.
#[derive(Debug)]
pub struct QueryEngine {
    graph: TemporalGraph,
    config: VugConfig,
    /// Warm scratch arenas recovered from finished batch workers.
    scratch_pool: std::sync::Mutex<Vec<QueryScratch>>,
    /// Upper bound on retained scratches. Each warm scratch pins two
    /// graph-sized subgraph buffers plus TCV tables, so the pool is capped
    /// at the number of workers the hardware can actually run concurrently
    /// — scratches returned beyond the cap are simply dropped.
    pool_cap: usize,
    /// Memoized `(s, t, window) → VugResult`; `None` when caching is off.
    cache: Option<ResultCache>,
}

impl QueryEngine {
    /// Creates an engine over `graph` with the default (published) VUG
    /// configuration and a default-sized result cache.
    pub fn new(graph: TemporalGraph) -> Self {
        Self::with_config(graph, VugConfig::default())
    }

    /// Creates an engine with an explicit pipeline configuration and a
    /// default-sized result cache.
    pub fn with_config(graph: TemporalGraph, config: VugConfig) -> Self {
        Self {
            graph,
            config,
            scratch_pool: std::sync::Mutex::new(Vec::new()),
            pool_cap: hardware_threads(),
            cache: Some(ResultCache::new(CacheConfig::default())),
        }
    }

    /// Replaces the result cache with one of the given bounds.
    pub fn with_cache(mut self, config: CacheConfig) -> Self {
        self.cache = Some(ResultCache::new(config));
        self
    }

    /// Disables result caching entirely (every batch re-executes; useful
    /// for benchmarking the raw pipeline and for memory-constrained
    /// embedders).
    pub fn without_cache(mut self) -> Self {
        self.cache = None;
        self
    }

    /// Counters and occupancy of the result cache, or `None` when caching
    /// is disabled.
    pub fn cache_stats(&self) -> Option<CacheStats> {
        self.cache.as_ref().map(ResultCache::stats)
    }

    /// Number of warm scratch arenas currently retained for future batches
    /// (bounded by the hardware's available parallelism).
    pub fn pooled_scratches(&self) -> usize {
        self.scratch_pool.lock().map(|pool| pool.len()).unwrap_or(0)
    }

    /// Takes a warm scratch from the pool, or a cold one if none is spare.
    pub(crate) fn checkout_scratch(&self) -> QueryScratch {
        self.scratch_pool.lock().map(|mut pool| pool.pop()).ok().flatten().unwrap_or_default()
    }

    /// Returns a scratch to the pool for the next batch, unless the pool is
    /// already at capacity.
    pub(crate) fn return_scratch(&self, scratch: QueryScratch) {
        if let Ok(mut pool) = self.scratch_pool.lock() {
            if pool.len() < self.pool_cap {
                pool.push(scratch);
            }
        }
    }

    /// The loaded graph.
    pub fn graph(&self) -> &TemporalGraph {
        &self.graph
    }

    /// The loaded graph's current [`GraphEpoch`].
    pub fn epoch(&self) -> GraphEpoch {
        self.graph.epoch()
    }

    /// Appends a timestamped edge batch to the loaded graph and flushes the
    /// result cache, returning the new [`GraphEpoch`].
    ///
    /// The exclusive `&mut self` borrow is the consistency mechanism: no
    /// query can run while the graph is mid-mutation, so a query batch
    /// observes either the pre- or the post-ingest graph in full — a batch
    /// never straddles an epoch. After the call, answers are identical to a
    /// fresh engine built over the union edge set:
    ///
    /// * the graph itself is byte-identical to a from-scratch build (see
    ///   [`TemporalGraph::extend_with_edges`]);
    /// * the result cache is flushed outright ([`ResultCache::clear`]) —
    ///   every cached tspG was computed at the previous epoch.
    ///
    /// The epoch advances on every call, even for an all-duplicate batch.
    pub fn ingest(&mut self, edges: &[TemporalEdge]) -> GraphEpoch {
        let epoch = self.graph.extend_with_edges(edges);
        if let Some(cache) = &self.cache {
            cache.clear();
        }
        epoch
    }

    /// The pipeline configuration.
    pub fn config(&self) -> &VugConfig {
        &self.config
    }

    /// Answers one query out of the caller's scratch arena.
    ///
    /// This is the raw execution primitive: it always runs the pipeline,
    /// consulting neither the planner nor the cache (the executor's workers
    /// call it, so a cache consult here would double-count every unit).
    pub fn run(&self, query: QuerySpec, scratch: &mut QueryScratch) -> VugResult {
        generate_tspg_scratch(
            &self.graph,
            query.source,
            query.target,
            query.window,
            &self.config,
            scratch,
        )
    }

    /// Answers a batch of queries across at most `threads` worker threads.
    /// Equivalent to [`QueryEngine::run_batch_with_stats`] with the
    /// counters dropped.
    pub fn run_batch(&self, queries: &[QuerySpec], threads: usize) -> Vec<VugResult> {
        self.run_batch_with_stats(queries, threads).0
    }

    /// Answers a batch through plan → execute → assemble and reports how
    /// each query was answered.
    ///
    /// `results[i]` always answers `queries[i]`, and every tspG is
    /// identical to what a one-shot [`crate::generate_tspg_with`] call
    /// would produce. The accompanying [`VugReport`] describes the work
    /// *actually performed* for that slot: duplicates carry a copy of their
    /// unit's report, cache hits carry the report recorded when the result
    /// was first computed, and window-shared answers report the pipeline
    /// run over the covering tspG (hence e.g. a smaller `input_edges`).
    ///
    /// Workers are scoped threads pulling plan units — and, once a unit's
    /// tspG is published, its individual followers — off atomic cursors
    /// (work stealing), so skewed per-query costs even out; the worker
    /// count is clamped to the number of pending work items.
    pub fn run_batch_with_stats(
        &self,
        queries: &[QuerySpec],
        threads: usize,
    ) -> (Vec<VugResult>, BatchStats) {
        let mut stats = BatchStats { queries: queries.len(), ..BatchStats::default() };
        let mut results: Vec<Option<VugResult>> = Vec::new();
        results.resize_with(queries.len(), || None);

        // Plan: answer degenerate queries inline, consult the cache, and
        // hand everything else to the planner in canonical form.
        let mut pending: Vec<(usize, QuerySpec)> = Vec::new();
        for (index, query) in queries.iter().enumerate() {
            let canonical = query.canonical();
            if canonical.is_degenerate() {
                results[index] = Some(self.degenerate_result());
                stats.degenerate += 1;
            } else if let Some(hit) = self.cache.as_ref().and_then(|c| c.get(&canonical)) {
                results[index] = Some(hit);
                stats.cache_hits += 1;
            } else {
                pending.push((index, canonical));
            }
        }
        let plan = planner::plan_batch(&pending);
        stats.executed_units = plan.num_units();
        stats.dedup_answered = plan.dedup_answered();
        stats.shared_answered = plan.shared_answered();

        // Execute: work-stealing over the plan's units and, once a unit's
        // tspG is published, its individual followers.
        let outcomes = executor::execute(self, &plan, threads);

        // Assemble: fan results back out to batch order and feed the cache.
        for (unit, outcome) in plan.units().iter().zip(outcomes) {
            if let Some(cache) = &self.cache {
                cache.insert(unit.query, &outcome.main);
                for (follower, result) in unit.followers.iter().zip(&outcome.followers) {
                    cache.insert(follower.query, result);
                }
            }
            for (follower, result) in unit.followers.iter().zip(outcome.followers) {
                fan_out(&mut results, &follower.indexes, result);
            }
            fan_out(&mut results, &unit.direct, outcome.main);
        }
        let results =
            results.into_iter().map(|r| r.expect("every query is assigned an answer")).collect();
        (results, stats)
    }

    /// The canonical answer to a degenerate (`s == t`) query, identical to
    /// what the pipeline itself returns for one.
    fn degenerate_result(&self) -> VugResult {
        VugResult {
            tspg: EdgeSet::new(),
            report: VugReport { input_edges: self.graph.num_edges(), ..VugReport::default() },
        }
    }

    /// Consumes the engine and returns the graph.
    pub fn into_graph(self) -> TemporalGraph {
        self.graph
    }
}

/// Places one computed result into every batch slot that asked for it,
/// moving (not cloning) into the last slot.
fn fan_out(results: &mut [Option<VugResult>], indexes: &[usize], result: VugResult) {
    let (&last, rest) = indexes.split_last().expect("every plan entry answers a query");
    for &index in rest {
        results[index] = Some(result.clone());
    }
    results[last] = Some(result);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::vug::{generate_tspg, generate_tspg_with};
    use tspg_graph::fixtures::{figure1_graph, figure1_query};
    use tspg_graph::TemporalEdge;

    #[test]
    fn engine_answers_match_the_one_shot_path_on_the_example() {
        let g = figure1_graph();
        let (s, t, w) = figure1_query();
        let engine = QueryEngine::new(g.clone());
        let mut scratch = QueryScratch::new();
        let queries = [
            QuerySpec::new(s, t, w),
            QuerySpec::new(t, s, w),                       // unreachable
            QuerySpec::new(s, s, w),                       // degenerate
            QuerySpec::new(s, t, TimeInterval::new(3, 5)), // empty window result
            QuerySpec::new(99, t, w),                      // out of range
            QuerySpec::new(s, t, w),                       // repeat on warm scratch
        ];
        for q in queries {
            let got = engine.run(q, &mut scratch);
            let expected = generate_tspg(&g, q.source, q.target, q.window);
            assert_eq!(got.tspg, expected.tspg, "query {q:?}");
            assert_eq!(got.report.quick_edges, expected.report.quick_edges, "query {q:?}");
            assert_eq!(got.report.tight_edges, expected.report.tight_edges, "query {q:?}");
            assert_eq!(got.report.eev, expected.report.eev, "query {q:?}");
        }
    }

    #[test]
    fn ablation_config_shares_gq_without_cloning() {
        let g = figure1_graph();
        let (s, t, w) = figure1_query();
        let engine = QueryEngine::with_config(g.clone(), VugConfig::without_tight_ubg());
        let mut scratch = QueryScratch::new();
        let got = engine.run(QuerySpec::new(s, t, w), &mut scratch);
        let expected = generate_tspg_with(&g, s, t, w, &VugConfig::without_tight_ubg());
        assert_eq!(got.tspg, expected.tspg);
        assert_eq!(got.report.tight_edges, got.report.quick_edges);
    }

    #[test]
    fn run_batch_is_deterministic_and_thread_count_invariant() {
        let g = figure1_graph();
        let (s, t, w) = figure1_query();
        let engine = QueryEngine::new(g);
        let queries: Vec<QuerySpec> = (0..17)
            .map(|i| match i % 4 {
                0 => QuerySpec::new(s, t, w),
                1 => QuerySpec::new(t, s, w),
                2 => QuerySpec::new(2, 7, TimeInterval::new(2, 7)),
                _ => QuerySpec::new(s, s, w),
            })
            .collect();
        let sequential = engine.run_batch(&queries, 1);
        assert_eq!(sequential.len(), queries.len());
        for threads in [2, 3, 8, 64] {
            let parallel = engine.run_batch(&queries, threads);
            assert_eq!(parallel.len(), queries.len());
            for (i, (a, b)) in sequential.iter().zip(parallel.iter()).enumerate() {
                assert_eq!(a.tspg, b.tspg, "threads={threads} query #{i}");
            }
        }
    }

    #[test]
    fn ingest_bumps_epoch_flushes_results_and_matches_fresh_engine() {
        let g = figure1_graph();
        let (s, t, w) = figure1_query();
        let mut engine = QueryEngine::new(g.clone()).with_cache(CacheConfig::default());
        assert_eq!(engine.epoch(), GraphEpoch::ZERO);
        let queries = [QuerySpec::new(s, t, w), QuerySpec::new(2, 7, TimeInterval::new(2, 7))];
        let cold = engine.run_batch(&queries, 2);

        // A direct s→t edge inside the window is always part of the tspG,
        // so the cached answer is guaranteed stale after this ingest.
        let delta = [TemporalEdge::new(s, t, 5)];
        let epoch = engine.ingest(&delta);
        assert_eq!(epoch.value(), 1);
        assert_eq!(engine.epoch(), epoch);
        assert_eq!(engine.cache_stats().expect("cache on").entries, 0, "flushed on ingest");

        let warm = engine.run_batch(&queries, 2);
        assert_ne!(cold[0].tspg, warm[0].tspg, "the answer must change");
        let mut union: Vec<TemporalEdge> = g.edges().to_vec();
        union.extend_from_slice(&delta);
        let fresh = QueryEngine::new(TemporalGraph::from_edges(g.num_vertices(), union));
        let expected = fresh.run_batch(&queries, 1);
        for (got, want) in warm.iter().zip(expected.iter()) {
            assert_eq!(got.tspg, want.tspg, "post-ingest answers match a fresh engine");
        }
    }

    #[test]
    fn batch_stats_account_for_every_query() {
        let g = figure1_graph();
        let (s, t, w) = figure1_query();
        let engine = QueryEngine::new(g);
        let queries = [
            QuerySpec::new(s, t, w),                       // unit
            QuerySpec::new(s, t, w),                       // duplicate
            QuerySpec::new(s, t, TimeInterval::new(3, 6)), // contained window
            QuerySpec::new(s, s, w),                       // degenerate
            QuerySpec::new(t, s, w),                       // distinct unit
        ];
        let (results, stats) = engine.run_batch_with_stats(&queries, 2);
        assert_eq!(results.len(), 5);
        assert_eq!(stats.queries, 5);
        assert_eq!(stats.executed_units, 2);
        assert_eq!(stats.dedup_answered, 1);
        assert_eq!(stats.shared_answered, 1);
        assert_eq!(stats.degenerate, 1);
        assert_eq!(stats.cache_hits, 0);
        assert_eq!(stats.saved_executions(), 3);

        // The same batch again is answered entirely from the cache (the
        // degenerate query stays inline).
        let (again, warm) = engine.run_batch_with_stats(&queries, 2);
        assert_eq!(warm.cache_hits, 4);
        assert_eq!(warm.executed_units, 0);
        assert_eq!(warm.degenerate, 1);
        for (a, b) in results.iter().zip(again.iter()) {
            assert_eq!(a.tspg, b.tspg);
        }
        let cache = engine.cache_stats().expect("cache is on by default");
        assert_eq!(cache.hits, 4);
        assert!(cache.entries >= 3);

        // merge() aggregates serving-loop counters.
        let mut total = stats;
        total.merge(&warm);
        assert_eq!(total.queries, 10);
        assert_eq!(total.cache_hits, 4);
    }

    #[test]
    fn disabling_the_cache_forces_re_execution() {
        let g = figure1_graph();
        let (s, t, w) = figure1_query();
        let engine = QueryEngine::new(g).without_cache();
        assert!(engine.cache_stats().is_none());
        let queries = [QuerySpec::new(s, t, w)];
        let (_, first) = engine.run_batch_with_stats(&queries, 1);
        let (_, second) = engine.run_batch_with_stats(&queries, 1);
        assert_eq!(first.executed_units, 1);
        assert_eq!(second.executed_units, 1);
        assert_eq!(second.cache_hits, 0);
    }

    #[test]
    fn window_shared_answers_match_full_graph_runs() {
        let g = figure1_graph();
        let (s, t, w) = figure1_query();
        let engine = QueryEngine::new(g.clone()).without_cache();
        // Wide query plus several strictly narrower windows on (s, t).
        let queries = [
            QuerySpec::new(s, t, w),
            QuerySpec::new(s, t, TimeInterval::new(2, 6)),
            QuerySpec::new(s, t, TimeInterval::new(3, 7)),
            QuerySpec::new(s, t, TimeInterval::new(4, 5)),
        ];
        let (results, stats) = engine.run_batch_with_stats(&queries, 1);
        assert_eq!(stats.executed_units, 1);
        assert_eq!(stats.shared_answered, 3);
        for (q, r) in queries.iter().zip(results.iter()) {
            let expected = generate_tspg(&g, q.source, q.target, q.window);
            assert_eq!(r.tspg, expected.tspg, "query {q}");
        }
    }

    #[test]
    fn envelope_shared_answers_match_full_graph_runs() {
        let g = figure1_graph();
        let (s, t, _) = figure1_query();
        let engine = QueryEngine::new(g.clone()).without_cache();
        // Overlapping, non-nested windows on (s, t): no window covers
        // another, so each runs as its own unit on the full graph.
        let queries = [
            QuerySpec::new(s, t, TimeInterval::new(2, 5)),
            QuerySpec::new(s, t, TimeInterval::new(4, 7)),
            QuerySpec::new(s, t, TimeInterval::new(3, 6)),
        ];
        let (results, stats) = engine.run_batch_with_stats(&queries, 2);
        assert_eq!(stats.executed_units, 3);
        assert_eq!(stats.saved_executions(), 0);
        for (q, r) in queries.iter().zip(results.iter()) {
            let expected = generate_tspg(&g, q.source, q.target, q.window);
            assert_eq!(r.tspg, expected.tspg, "query {q}");
        }
    }

    #[test]
    fn containment_only_planner_never_synthesizes() {
        let g = figure1_graph();
        let (s, t, _) = figure1_query();
        let engine = QueryEngine::new(g.clone()).without_cache();
        let queries = [
            QuerySpec::new(s, t, TimeInterval::new(2, 5)),
            QuerySpec::new(s, t, TimeInterval::new(4, 7)),
        ];
        let (results, stats) = engine.run_batch_with_stats(&queries, 1);
        assert_eq!(stats.executed_units, 2);
        assert_eq!(stats.shared_answered, 0);
        for (q, r) in queries.iter().zip(results.iter()) {
            assert_eq!(r.tspg, generate_tspg(&g, q.source, q.target, q.window).tspg);
        }
    }

    #[test]
    fn stolen_followers_match_serial_execution() {
        let g = figure1_graph();
        let (s, t, w) = figure1_query();
        let engine = QueryEngine::new(g).without_cache();
        // One wide unit with many followers (nested and overlapping), plus
        // independent units, across thread counts that force stealing.
        let mut queries = vec![QuerySpec::new(s, t, w), QuerySpec::new(t, s, w)];
        for i in 0..12 {
            let b = 2 + (i % 4);
            queries.push(QuerySpec::new(s, t, TimeInterval::new(b, (b + 3).min(7))));
        }
        let serial = engine.run_batch(&queries, 1);
        for threads in [2, 4, 16] {
            let stolen = engine.run_batch(&queries, threads);
            for (i, (a, b)) in serial.iter().zip(stolen.iter()).enumerate() {
                assert_eq!(a.tspg, b.tspg, "threads={threads} query #{i}");
            }
        }
    }

    #[test]
    fn scratch_pool_is_reused_and_bounded() {
        let (s, t, w) = figure1_query();
        let engine = QueryEngine::new(figure1_graph());
        // Distinct, non-nested windows so the batch cannot collapse to a
        // single unit — workers are actually spawned.
        let queries: Vec<QuerySpec> = (0..64)
            .map(|i| QuerySpec::new(s, t, TimeInterval::new(2 + i, 9 + 2 * i)))
            .chain(std::iter::once(QuerySpec::new(t, s, w)))
            .collect();
        assert_eq!(engine.pooled_scratches(), 0);
        // Even a maximally oversubscribed batch must not retain more warm
        // scratches than the hardware can run concurrently.
        let _ = engine.run_batch(&queries, 64);
        let cap = hardware_threads();
        assert!(engine.pooled_scratches() <= cap, "pool exceeded cap {cap}");
        // Subsequent batches draw from (and refill) the pool, never past it.
        let retained = engine.pooled_scratches();
        let _ = engine.run_batch(&queries, 1);
        assert!(engine.pooled_scratches() >= retained.min(1));
        assert!(engine.pooled_scratches() <= cap);
    }

    #[test]
    fn empty_batch_and_empty_graph_are_fine() {
        let engine = QueryEngine::new(TemporalGraph::empty(3));
        assert!(engine.run_batch(&[], 4).is_empty());
        let results = engine.run_batch(&[QuerySpec::new(0, 2, TimeInterval::new(1, 5))], 4);
        assert!(results[0].tspg.is_empty());
        assert_eq!(engine.graph().num_vertices(), 3);
        assert!(engine.config().use_tight_ubg);
        assert_eq!(engine.into_graph().num_vertices(), 3);
    }

    #[test]
    fn warm_scratch_agrees_with_one_shot_across_random_graphs() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(0xbadc0de);
        let mut scratch = QueryScratch::new();
        for case in 0..40 {
            let n: u32 = rng.random_range(4..14);
            let m = rng.random_range(8..90);
            let edges: Vec<TemporalEdge> = (0..m)
                .map(|_| {
                    TemporalEdge::new(
                        rng.random_range(0..n),
                        rng.random_range(0..n),
                        rng.random_range(1..12),
                    )
                })
                .filter(|e| e.src != e.dst)
                .collect();
            let g = TemporalGraph::from_edges(n as usize, edges);
            let engine = QueryEngine::new(g.clone());
            // Re-use one scratch across *different* graphs to stress the
            // buffer recycling paths.
            for _ in 0..4 {
                let s = rng.random_range(0..n);
                let t = rng.random_range(0..n);
                let w = TimeInterval::new(rng.random_range(1..4), rng.random_range(4..12));
                let got = engine.run(QuerySpec::new(s, t, w), &mut scratch);
                let expected = generate_tspg(&g, s, t, w);
                assert_eq!(got.tspg, expected.tspg, "case {case} ({s}->{t} {w})");
            }
        }
    }
}
