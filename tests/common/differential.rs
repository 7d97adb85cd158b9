//! Reusable differential harness: every planner/executor/cache feature of
//! the batch engine must be answer-invisible, and PRs 2–4 each grew their
//! own ad-hoc byte-identity test for it. This module is the one shared
//! implementation of that pattern.
//!
//! [`assert_batch_matches_sequential`] answers a batch through any number
//! of engine configurations (each across several thread counts and warm
//! passes) and asserts, per batch slot, byte-identity of the tspG — and of
//! the result-derived report fields — against the PR 2 sequential path
//! (one raw pipeline execution per query, no planner, no cache). It also
//! asserts the [`BatchStats`] bookkeeping invariants on every run and
//! returns the collected stats so callers can pin feature-specific
//! expectations (cache hits, shared answers) on top.

// Each test binary compiles this module independently and uses a different
// subset of the helpers.
#![allow(dead_code)]

use tspg_suite::core::QueryScratch;
use tspg_suite::prelude::*;

/// One engine configuration to pin against the PR 2 sequential path.
#[derive(Clone, Debug)]
pub struct EngineSetup {
    /// Shown in every assertion message.
    pub label: String,
    /// Result-cache bound, or `None` for a cache-less engine.
    pub cache: Option<CacheConfig>,
    /// Worker-thread counts the batch is answered at (each on a fresh
    /// engine, so thread counts never see each other's cache state).
    pub threads: Vec<usize>,
    /// Times the same batch is replayed through one engine; passes beyond
    /// the first exercise the warm result cache.
    pub passes: usize,
}

impl EngineSetup {
    /// A cache-less setup answering at 1, 4 and 8 worker threads.
    pub fn new(label: impl Into<String>) -> Self {
        Self { label: label.into(), cache: None, threads: vec![1, 4, 8], passes: 1 }
    }

    /// Adds a result cache and a second (warm) pass.
    pub fn with_cache(mut self, entries: usize) -> Self {
        self.cache = Some(CacheConfig::with_max_entries(entries));
        self.passes = self.passes.max(2);
        self
    }

    /// Overrides the worker-thread counts.
    pub fn at_threads(mut self, threads: &[usize]) -> Self {
        self.threads = threads.to_vec();
        self
    }

    /// The engine's configuration grid: result cache off and on, each at
    /// the default thread counts — the configuration space the
    /// `BatchStats` invariants must hold over.
    pub fn grid() -> Vec<EngineSetup> {
        vec![EngineSetup::new("no-cache"), EngineSetup::new("cache").with_cache(4096)]
    }
}

/// The PR 2 sequential path: one raw pipeline execution per query out of a
/// warm scratch, bypassing planner and cache. This is the reference every
/// batch configuration is held to.
pub fn sequential_results(graph: &TemporalGraph, queries: &[QuerySpec]) -> Vec<VugResult> {
    let engine = QueryEngine::new(graph.clone()).without_cache();
    let mut scratch = QueryScratch::new();
    queries.iter().map(|&q| engine.run(q, &mut scratch)).collect()
}

/// The [`BatchStats`] bookkeeping invariants that hold for *every* batch,
/// regardless of planner configuration:
///
/// * the five answer buckets partition the batch (each query is answered
///   exactly one way);
/// * planning never runs more full-graph pipelines than there are queries.
pub fn assert_stats_invariants(stats: &BatchStats) {
    assert_eq!(
        stats.executed_units
            + stats.shared_answered
            + stats.dedup_answered
            + stats.cache_hits
            + stats.degenerate,
        stats.queries,
        "every query is answered exactly one way: {stats:?}"
    );
    assert!(
        stats.executed_units <= stats.queries,
        "planning must never add net pipeline runs: {stats:?}"
    );
}

/// Answers `queries` through every setup × thread count × pass and asserts
/// each slot's answer is byte-identical to the PR 2 sequential path, in
/// order. Returns the stats of every run (in setup-major order) for
/// feature-specific follow-up assertions.
pub fn assert_batch_matches_sequential(
    graph: &TemporalGraph,
    queries: &[QuerySpec],
    setups: &[EngineSetup],
) -> Vec<BatchStats> {
    let sequential = sequential_results(graph, queries);
    let mut collected = Vec::new();
    for setup in setups {
        for &threads in &setup.threads {
            let engine = QueryEngine::new(graph.clone());
            let engine = match setup.cache {
                Some(cache) => engine.with_cache(cache),
                None => engine.without_cache(),
            };
            for pass in 0..setup.passes.max(1) {
                let (results, stats) = engine.run_batch_with_stats(queries, threads);
                let context = |i: usize| {
                    format!(
                        "[{}] threads={threads} pass={pass} query #{i} ({})",
                        setup.label, queries[i]
                    )
                };
                assert_eq!(results.len(), queries.len(), "[{}] result arity", setup.label);
                assert_stats_invariants(&stats);
                if setup.cache.is_some() && pass > 0 {
                    assert_eq!(
                        stats.executed_units, 0,
                        "[{}] threads={threads} pass={pass}: a replayed batch must be answered \
                         from the cache: {stats:?}",
                        setup.label
                    );
                }
                for (i, (got, want)) in results.iter().zip(&sequential).enumerate() {
                    assert_eq!(got.tspg, want.tspg, "{}", context(i));
                    assert_eq!(got.report.result_edges, want.report.result_edges, "{}", context(i));
                    assert_eq!(
                        got.report.result_vertices,
                        want.report.result_vertices,
                        "{}",
                        context(i)
                    );
                }
                collected.push(stats);
            }
        }
    }
    collected
}

/// Exactness anchor: the sequential path itself must equal exhaustive
/// naive enumeration on every query. Combined with
/// [`assert_batch_matches_sequential`] this pins the whole engine, not
/// just its internal consistency.
pub fn assert_sequential_matches_naive(graph: &TemporalGraph, queries: &[QuerySpec]) {
    for (i, result) in sequential_results(graph, queries).iter().enumerate() {
        let q = queries[i];
        let naive = naive_tspg(graph, q.source, q.target, q.window, &Budget::unlimited());
        assert!(naive.is_exact(), "naive enumeration must not be budget-limited");
        assert_eq!(result.tspg, naive.tspg, "query #{i} ({q}) diverged from enumeration");
    }
}
