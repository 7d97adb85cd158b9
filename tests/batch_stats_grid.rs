//! `BatchStats` bookkeeping under the engine's configuration grid (result
//! cache off and on × thread counts): on random graphs and batches, for
//! every configuration, every thread count and every warm pass,
//!
//! * the five answer buckets sum to `queries` (each query answered exactly
//!   one way), and
//! * `executed_units` never exceeds `queries` (planning never adds net
//!   work).
//!
//! The shared harness asserts all of this — plus byte-identity against the
//! sequential path — on every run it performs; this file drives it across
//! the grid with batches stuffed with the shapes every bucket fires on.

mod common;

use common::differential::{assert_batch_matches_sequential, EngineSetup};
use proptest::collection::vec;
use proptest::prelude::*;
use tspg_suite::core::QuerySpec;
use tspg_suite::prelude::*;

/// A graph plus a batch containing, by construction, every answer shape:
/// fresh queries, exact duplicates, contained windows, overlapping
/// windows, same-source fan-outs (same- and mixed-begin) and degenerate
/// (`s == t`) queries.
fn graph_and_loaded_batch() -> impl Strategy<Value = (TemporalGraph, Vec<QuerySpec>)> {
    const N: u32 = 8;
    let edge = (0..N, 0..N, 1..=9i64).prop_map(|(u, v, t)| TemporalEdge::new(u, v, t));
    let shape = (0..7usize, 0..N, 0..N, 1..=7i64, 0..=3i64);
    (vec(edge, 1..50), vec(shape, 2..16)).prop_map(|(edges, shapes)| {
        let edges: Vec<TemporalEdge> = edges.into_iter().filter(|e| e.src != e.dst).collect();
        let graph = TemporalGraph::from_edges(N as usize, edges);
        let mut queries: Vec<QuerySpec> = Vec::new();
        for (kind, s, t, begin, extra) in shapes {
            let window = TimeInterval::new(begin, (begin + extra + 1).min(9));
            let query = match kind {
                // Degenerate.
                0 => QuerySpec::new(s, s, window),
                // Duplicate of an earlier query, when one exists.
                1 if !queries.is_empty() => queries[s as usize % queries.len()],
                // Contained window of an earlier query.
                2 if !queries.is_empty() => {
                    let base = queries[t as usize % queries.len()];
                    let b = base.window.begin();
                    QuerySpec::new(base.source, base.target, TimeInterval::new(b, b))
                }
                // Overlapping slide of an earlier query.
                3 if !queries.is_empty() => {
                    let base = queries[t as usize % queries.len()];
                    let b = base.window.begin() + 1;
                    QuerySpec::new(
                        base.source,
                        base.target,
                        TimeInterval::new(b, b + base.window.span() - 1),
                    )
                }
                // Same-source fan-out off an earlier query.
                4 if !queries.is_empty() => {
                    let base = queries[s as usize % queries.len()];
                    QuerySpec::new(base.source, t, base.window)
                }
                // Mixed-begin fan-out: same source and end, slid begin.
                5 if !queries.is_empty() => {
                    let base = queries[s as usize % queries.len()];
                    let w = base.window;
                    let b = (w.begin() + extra).min(w.end());
                    QuerySpec::new(base.source, t, TimeInterval::new(b, w.end()))
                }
                // Fresh query.
                _ => QuerySpec::new(s, t, window),
            };
            queries.push(query);
        }
        (graph, queries)
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Every configuration of the grid holds the sum invariant and the
    /// pipeline-run bound — and answers the batch
    /// byte-identically to the sequential path. Cached configurations run
    /// a second (pure-cache) pass; the second pass shifts every query into
    /// the `cache_hits` / `degenerate` buckets and must keep the
    /// invariants too.
    #[test]
    fn stats_invariants_hold_across_the_config_grid(
        (graph, queries) in graph_and_loaded_batch()
    ) {
        let stats = assert_batch_matches_sequential(&graph, &queries, &EngineSetup::grid());
        // The harness asserts the invariants on every run; re-check the
        // headline bound here as the gate.
        prop_assert!(stats.iter().all(|s| s.queries == queries.len()));
        prop_assert!(stats.iter().all(|s| s.executed_units <= s.queries));
    }
}
