//! Property-based tests (proptest) of the core invariants, run on randomly
//! generated temporal graphs and queries. The headline exactness invariant
//! goes through the shared differential harness
//! (`tests/common/differential.rs`), so one property pins naive
//! enumeration == one-shot VUG == every batch-engine path at once.

mod common;

use common::differential::{
    assert_batch_matches_sequential, assert_sequential_matches_naive, EngineSetup,
};
use proptest::collection::vec;
use proptest::prelude::*;
use tspg_suite::core as vug;
use tspg_suite::prelude::*;

const MAX_VERTICES: u32 = 10;
const MAX_TIME: i64 = 10;

/// Strategy: a random directed temporal multigraph plus a query.
fn graph_and_query() -> impl Strategy<Value = (TemporalGraph, VertexId, VertexId, TimeInterval)> {
    let edge = (0..MAX_VERTICES, 0..MAX_VERTICES, 1..=MAX_TIME)
        .prop_map(|(u, v, t)| TemporalEdge::new(u, v, t));
    (vec(edge, 1..60), 0..MAX_VERTICES, 0..MAX_VERTICES, 1..=MAX_TIME, 0..MAX_TIME).prop_map(
        |(edges, s, t, begin, extra)| {
            let edges: Vec<TemporalEdge> = edges.into_iter().filter(|e| e.src != e.dst).collect();
            let graph = TemporalGraph::from_edges(MAX_VERTICES as usize, edges);
            let end = (begin + extra).min(MAX_TIME);
            (graph, s, t, TimeInterval::new(begin, end))
        },
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// The headline invariant, through the differential harness: naive
    /// enumeration == the sequential engine path == the one-shot pipeline
    /// == the planned batch engine.
    #[test]
    fn vug_equals_naive_enumeration((graph, s, t, window) in graph_and_query()) {
        let query = Query::new(s, t, window);
        let vug_result = generate_tspg(&graph, s, t, window);
        let naive = naive_tspg(&graph, s, t, window, &Budget::unlimited());
        prop_assert!(naive.is_exact());
        prop_assert_eq!(&vug_result.tspg, &naive.tspg);
        assert_sequential_matches_naive(&graph, &[query]);
        assert_batch_matches_sequential(
            &graph,
            &[query],
            &[EngineSetup::new("default").at_threads(&[1])],
        );
    }

    /// Subgraph chain: tspG ⊆ G_t ⊆ G_q ⊆ projection ⊆ G.
    #[test]
    fn upper_bound_graphs_nest((graph, s, t, window) in graph_and_query()) {
        let projection = EdgeSet::from_graph(&graph.project(window));
        let gq = vug::quick_upper_bound_graph(&graph, s, t, window);
        let gt = vug::tight_upper_bound_graph(&gq, s, t);
        let gq_set = EdgeSet::from_graph(&gq);
        let gt_set = EdgeSet::from_graph(&gt);
        let tspg = generate_tspg(&graph, s, t, window).tspg;
        prop_assert!(tspg.is_subset_of(&gt_set));
        prop_assert!(gt_set.is_subset_of(&gq_set));
        prop_assert!(gq_set.is_subset_of(&projection));
        prop_assert!(projection.is_subset_of(&EdgeSet::from_graph(&graph)));
    }

    /// Every enumerated temporal simple path is valid, and the polarity
    /// arrival time is a lower bound on (and attained by) path arrivals.
    #[test]
    fn polarity_times_bound_path_arrivals((graph, s, t, window) in graph_and_query()) {
        prop_assume!(s != t);
        let polarity = vug::compute_polarity(&graph, s, t, window);
        let out = enumerate_paths(&graph, s, t, window, &Budget::unlimited());
        for p in &out.paths {
            prop_assert!(p.validate(s, t, window).is_ok());
            // Each path's prefix arrival at its second-to-last vertex must
            // respect A(.): A(u) is the minimum over all paths avoiding t.
            let vertices = p.vertices();
            let second_last = vertices[vertices.len() - 2];
            if second_last != s {
                let arrival = polarity.arrival(second_last)
                    .expect("vertices on s->t paths are reachable");
                // the prefix of p reaches second_last at the next-to-last edge's time
                let prefix_arrival = p.edges()[p.len() - 2].time;
                prop_assert!(arrival <= prefix_arrival);
            }
        }
        // Lemma 1: every edge of every witness path is admitted by the
        // polarity times.
        for p in &out.paths {
            for e in p.edges() {
                prop_assert!(polarity.admits_edge(e.src, e.dst, e.time));
            }
        }
    }

    /// The quick upper-bound graph equals the Dijkstra-based tgTSG reduction.
    #[test]
    fn quick_ubg_equals_tg_tsg((graph, s, t, window) in graph_and_query()) {
        let gq = EdgeSet::from_graph(&vug::quick_upper_bound_graph(&graph, s, t, window));
        let tg = EdgeSet::from_graph(&tspg_suite::baselines::tg_tsg(&graph, s, t, window));
        prop_assert_eq!(gq, tg);
    }

    /// EdgeSet algebra is consistent with graph round-trips.
    #[test]
    fn edgeset_graph_roundtrip((graph, _s, _t, window) in graph_and_query()) {
        let projected = graph.project(window);
        let set = EdgeSet::from_graph(&projected);
        let back = set.to_graph(graph.num_vertices());
        prop_assert_eq!(back.edges(), projected.edges());
        prop_assert_eq!(set.num_edges(), projected.num_edges());
        prop_assert!(set.is_subset_of(&EdgeSet::from_graph(&graph)));
    }

    /// Bit-packing an edge set (the result cache's stored form) and
    /// unpacking it restores the set exactly, in at most the unpacked 16 B
    /// per edge. Ids and timestamps keep a random number of low bits, so
    /// every field width from 0 bits to the full type occurs.
    #[test]
    fn packed_edge_sets_roundtrip(
        (raw, id_bits, time_bits) in (
            vec((0..=u32::MAX, 0..=u32::MAX, i64::MIN..=i64::MAX), 0..120),
            0u32..=32,
            0u32..=64,
        )
    ) {
        let id_mask = u32::MAX.checked_shr(32 - id_bits).unwrap_or(0);
        let time_mask = u64::MAX.checked_shr(64 - time_bits).unwrap_or(0);
        let set = EdgeSet::from_edges(raw.into_iter().map(|(u, v, t)| {
            TemporalEdge::new(u & id_mask, v & id_mask, ((t as u64) & time_mask) as i64)
        }));
        let packed = set.pack();
        prop_assert!(packed.heap_bytes() <= set.approx_bytes());
        prop_assert_eq!(packed.unpack(), set);
    }

    /// The tspG is independent of how the query window is reached: querying
    /// on the projected graph gives the same result as on the full graph.
    #[test]
    fn projection_invariance((graph, s, t, window) in graph_and_query()) {
        let full = generate_tspg(&graph, s, t, window).tspg;
        let projected = generate_tspg(&graph.project(window), s, t, window).tspg;
        prop_assert_eq!(full, projected);
    }

    /// Workload generation only emits temporally satisfiable queries.
    #[test]
    fn workloads_are_reachable(seed in 0u64..500) {
        let spec = &registry()[(seed % 3) as usize];
        let graph = spec.generate(Scale::tiny(), seed);
        let queries = generate_workload(&graph, 5, 6, seed).expect("workload");
        for q in &queries {
            prop_assert!(tspg_suite::datasets::is_reachable(&graph, q.source, q.target, q.window));
            prop_assert!(!generate_tspg(&graph, q.source, q.target, q.window).tspg.is_empty());
        }
    }
}
