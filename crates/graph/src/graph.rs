//! Immutable CSR-style storage of a directed temporal graph.
//!
//! The layout is chosen to support the exact access patterns of the paper's
//! algorithms:
//!
//! * a global edge array sorted by non-descending timestamp (the scan order
//!   of Algorithms 4 and 5 and of the EEV edge loop);
//! * per-vertex out- and in-adjacency lists sorted by timestamp, so that the
//!   polarity-time BFS, the bidirectional DFS and the `T_in`/`T_out`
//!   timestamp lookups are cheap binary searches / ordered scans.

use crate::interval::TimeInterval;
use crate::types::{EdgeId, TemporalEdge, Timestamp, VertexId};

/// One adjacency entry: the neighbouring vertex, the timestamp of the
/// connecting edge, and the edge's id in the owning graph.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct AdjEntry {
    /// Neighbour vertex (head for out-adjacency, tail for in-adjacency).
    pub neighbor: VertexId,
    /// Timestamp of the connecting edge.
    pub time: Timestamp,
    /// Id of the connecting edge in the owning [`TemporalGraph`].
    pub edge: EdgeId,
}

/// Version number of a [`TemporalGraph`] under streaming mutation.
///
/// A freshly built graph is at epoch 0; every
/// [`TemporalGraph::extend_with_edges`] call advances the epoch by one,
/// whether or not the batch contributed a new edge (callers key caches by
/// epoch, and a conservative bump is always sound where a missed one is
/// not). Epochs are totally ordered and never reused, so any state derived
/// from the graph — cached results, published tspGs — can be scoped to
/// the epoch it was computed at and becomes unreachable the moment the
/// graph moves on.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct GraphEpoch(u64);

impl GraphEpoch {
    /// The epoch of every freshly constructed graph.
    pub const ZERO: GraphEpoch = GraphEpoch(0);

    /// The epoch as a plain integer (for `key=value` surfaces and cache
    /// keys).
    #[inline]
    pub fn value(self) -> u64 {
        self.0
    }

    /// The next epoch.
    #[must_use]
    #[inline]
    pub fn next(self) -> GraphEpoch {
        GraphEpoch(self.0 + 1)
    }
}

impl std::fmt::Display for GraphEpoch {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.0)
    }
}

/// An immutable directed temporal graph.
///
/// Vertices are the dense range `0..num_vertices`; a vertex may be isolated.
/// Edges are stored sorted by `(time, src, dst)` and exact duplicates are
/// removed at construction time (the paper treats `E` as a set).
///
/// "Immutable" describes the query surface, not the storage: the streaming
/// ingestion path ([`TemporalGraph::extend_with_edges`]) appends a
/// timestamped edge batch and re-normalizes in place, leaving the graph
/// indistinguishable from a from-scratch [`TemporalGraph::from_edges`]
/// build over the union edge set — and advances the [`GraphEpoch`] so
/// derived state can tell the two versions apart.
#[derive(Clone, Debug, Default)]
pub struct TemporalGraph {
    num_vertices: usize,
    edges: Vec<TemporalEdge>,
    out_offsets: Vec<usize>,
    out_entries: Vec<AdjEntry>,
    in_offsets: Vec<usize>,
    in_entries: Vec<AdjEntry>,
    epoch: GraphEpoch,
}

impl TemporalGraph {
    /// Builds a graph from an explicit vertex count and edge list.
    ///
    /// Edges are sorted and de-duplicated; `num_vertices` is grown if any
    /// edge references a vertex `≥ num_vertices`.
    pub fn from_edges(num_vertices: usize, edges: Vec<TemporalEdge>) -> Self {
        let mut graph = Self { edges, ..Self::default() };
        graph.normalize_and_index(num_vertices);
        graph
    }

    /// Shared normalization of every construction path: sorts and
    /// de-duplicates `self.edges`, grows the vertex range to cover them,
    /// and rebuilds both CSR indexes.
    fn normalize_and_index(&mut self, num_vertices: usize) {
        self.edges.sort_unstable();
        self.edges.dedup();
        let required =
            self.edges.iter().map(|e| (e.src.max(e.dst) as usize) + 1).max().unwrap_or(0);
        self.num_vertices = num_vertices.max(required);
        self.rebuild_indexes();
    }

    /// Rebuilds the two CSR indexes from `self.edges` (which must already be
    /// sorted and de-duplicated), reusing the index vectors' capacity.
    fn rebuild_indexes(&mut self) {
        build_adjacency_into(
            self.num_vertices,
            &self.edges,
            true,
            &mut self.out_offsets,
            &mut self.out_entries,
        );
        build_adjacency_into(
            self.num_vertices,
            &self.edges,
            false,
            &mut self.in_offsets,
            &mut self.in_entries,
        );
    }

    /// An empty graph with `num_vertices` isolated vertices.
    pub fn empty(num_vertices: usize) -> Self {
        Self::from_edges(num_vertices, Vec::new())
    }

    /// Number of vertices `n = |V|` (including isolated vertices).
    #[inline]
    pub fn num_vertices(&self) -> usize {
        self.num_vertices
    }

    /// Number of temporal edges `m = |E|`.
    #[inline]
    pub fn num_edges(&self) -> usize {
        self.edges.len()
    }

    /// Returns `true` if the graph has no edges.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.edges.is_empty()
    }

    /// Iterator over all vertex ids `0..n`.
    #[inline]
    pub fn vertices(&self) -> impl Iterator<Item = VertexId> + '_ {
        (0..self.num_vertices as VertexId).map(|v| v as VertexId)
    }

    /// All edges, sorted by `(time, src, dst)`; the position of an edge in
    /// this slice is its [`EdgeId`].
    #[inline]
    pub fn edges(&self) -> &[TemporalEdge] {
        &self.edges
    }

    /// The edge with the given id.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    #[inline]
    pub fn edge(&self, id: EdgeId) -> TemporalEdge {
        self.edges[id as usize]
    }

    /// Looks up the id of the exact edge `e(src, dst, time)` if present.
    pub fn find_edge(&self, src: VertexId, dst: VertexId, time: Timestamp) -> Option<EdgeId> {
        let probe = TemporalEdge::new(src, dst, time);
        self.edges.binary_search(&probe).ok().map(|i| i as EdgeId)
    }

    /// Returns `true` if the exact edge `e(src, dst, time)` is present.
    #[inline]
    pub fn has_edge(&self, src: VertexId, dst: VertexId, time: Timestamp) -> bool {
        self.find_edge(src, dst, time).is_some()
    }

    /// Out-neighbours `N_out(u)` as `(neighbour, time, edge)` entries sorted
    /// by non-descending timestamp.
    #[inline]
    pub fn out_neighbors(&self, u: VertexId) -> &[AdjEntry] {
        let u = u as usize;
        &self.out_entries[self.out_offsets[u]..self.out_offsets[u + 1]]
    }

    /// In-neighbours `N_in(u)` sorted by non-descending timestamp.
    #[inline]
    pub fn in_neighbors(&self, u: VertexId) -> &[AdjEntry] {
        let u = u as usize;
        &self.in_entries[self.in_offsets[u]..self.in_offsets[u + 1]]
    }

    /// Out-neighbours of `u` whose edge timestamp lies inside `window`.
    pub fn out_neighbors_in(&self, u: VertexId, window: TimeInterval) -> &[AdjEntry] {
        slice_by_time(self.out_neighbors(u), window)
    }

    /// In-neighbours of `u` whose edge timestamp lies inside `window`.
    pub fn in_neighbors_in(&self, u: VertexId, window: TimeInterval) -> &[AdjEntry] {
        slice_by_time(self.in_neighbors(u), window)
    }

    /// Out-degree of `u` (number of temporal out-edges).
    #[inline]
    pub fn out_degree(&self, u: VertexId) -> usize {
        self.out_neighbors(u).len()
    }

    /// In-degree of `u` (number of temporal in-edges).
    #[inline]
    pub fn in_degree(&self, u: VertexId) -> usize {
        self.in_neighbors(u).len()
    }

    /// The largest in- or out-degree over all vertices, the `d` of the
    /// paper's complexity analyses.
    pub fn max_degree(&self) -> usize {
        (0..self.num_vertices as VertexId)
            .map(|u| self.out_degree(u).max(self.in_degree(u)))
            .max()
            .unwrap_or(0)
    }

    /// Distinct timestamps of out-edges of `u` (`T_out(u)`), ascending.
    pub fn out_times(&self, u: VertexId) -> Vec<Timestamp> {
        distinct_times(self.out_neighbors(u))
    }

    /// Distinct timestamps of in-edges of `u` (`T_in(u)`), ascending.
    pub fn in_times(&self, u: VertexId) -> Vec<Timestamp> {
        distinct_times(self.in_neighbors(u))
    }

    /// All distinct timestamps appearing on any edge (`T`), ascending.
    pub fn timestamps(&self) -> Vec<Timestamp> {
        let mut ts: Vec<Timestamp> = self.edges.iter().map(|e| e.time).collect();
        ts.dedup(); // edges are already sorted by time
        ts
    }

    /// Number of distinct timestamps `|T|`.
    pub fn num_timestamps(&self) -> usize {
        self.timestamps().len()
    }

    /// Smallest and largest timestamps as an interval, if the graph has
    /// edges.
    pub fn time_range(&self) -> Option<TimeInterval> {
        let first = self.edges.first()?.time;
        let last = self.edges.last()?.time;
        Some(TimeInterval::new(first, last))
    }

    /// Vertices that are the endpoint of at least one edge, ascending.
    pub fn non_isolated_vertices(&self) -> Vec<VertexId> {
        let mut present = vec![false; self.num_vertices];
        for e in &self.edges {
            present[e.src as usize] = true;
            present[e.dst as usize] = true;
        }
        present.iter().enumerate().filter_map(|(v, &p)| p.then_some(v as VertexId)).collect()
    }

    /// The projected graph `G[τ_b, τ_e]`: same vertex id space, keeping only
    /// edges whose timestamp lies inside `window` (the `dtTSG` reduction of
    /// Section III-A).
    pub fn project(&self, window: TimeInterval) -> TemporalGraph {
        self.edge_induced(|_, e| window.contains(e.time))
    }

    /// Edge-induced subgraph keeping exactly the edges for which `keep`
    /// returns `true`. The vertex id space is preserved.
    pub fn edge_induced<F>(&self, mut keep: F) -> TemporalGraph
    where
        F: FnMut(EdgeId, &TemporalEdge) -> bool,
    {
        let edges: Vec<TemporalEdge> = self
            .edges
            .iter()
            .enumerate()
            .filter(|(i, e)| keep(*i as EdgeId, e))
            .map(|(_, e)| *e)
            .collect();
        TemporalGraph::from_edges(self.num_vertices, edges)
    }

    /// In-place variant of [`TemporalGraph::edge_induced`]: rebuilds `self`
    /// as the edge-induced subgraph of `source`, reusing `self`'s existing
    /// heap allocations (edge array and both CSR indexes).
    ///
    /// This is the storage primitive behind the batch query engine's scratch
    /// reuse: after the first query warms the buffers up, constructing the
    /// per-query upper-bound graphs allocates nothing in steady state.
    pub fn assign_edge_induced<F>(&mut self, source: &TemporalGraph, mut keep: F)
    where
        F: FnMut(EdgeId, &TemporalEdge) -> bool,
    {
        self.num_vertices = source.num_vertices;
        self.edges.clear();
        self.edges.extend(
            source.edges.iter().enumerate().filter(|(i, e)| keep(*i as EdgeId, e)).map(|(_, e)| *e),
        );
        // `source.edges` is sorted and de-duplicated; filtering preserves both.
        self.rebuild_indexes();
    }

    /// The graph's current [`GraphEpoch`].
    ///
    /// Freshly built graphs (any constructor, including the in-place
    /// `assign_*` rebuilds used for scratch reuse) are at epoch 0; only
    /// [`TemporalGraph::extend_with_edges`] advances it.
    #[inline]
    pub fn epoch(&self) -> GraphEpoch {
        self.epoch
    }

    /// Appends a timestamped edge batch and re-normalizes the graph in
    /// place, returning the new [`GraphEpoch`].
    ///
    /// The batch may be unsorted, may contain duplicates (of itself or of
    /// resident edges), and may reference vertices beyond the current
    /// range — the same normalization as [`TemporalGraph::from_edges`]
    /// applies, so the result is byte-identical (edge array, CSR offsets
    /// and entries, vertex count) to a from-scratch build over the union
    /// edge set. Existing [`EdgeId`]s are NOT stable across a call: ids are
    /// positions in the time-sorted edge array, and new edges may land
    /// anywhere in it.
    ///
    /// The epoch advances on *every* call, even when the batch turns out to
    /// be all duplicates: callers key caches by epoch, and a spurious bump
    /// only costs recomputation where a missed one would serve stale
    /// answers.
    pub fn extend_with_edges(&mut self, edges: &[TemporalEdge]) -> GraphEpoch {
        self.edges.extend_from_slice(edges);
        self.normalize_and_index(self.num_vertices);
        self.epoch = self.epoch.next();
        self.epoch
    }

    /// Edge-induced subgraph from a boolean mask indexed by [`EdgeId`].
    ///
    /// # Panics
    ///
    /// Panics if `mask.len() != self.num_edges()`.
    pub fn edge_induced_from_mask(&self, mask: &[bool]) -> TemporalGraph {
        assert_eq!(mask.len(), self.num_edges(), "edge mask length mismatch");
        self.edge_induced(|id, _| mask[id as usize])
    }

    /// Reverse graph: every edge `e(u, v, τ)` becomes `e(v, u, τ)`.
    pub fn reversed(&self) -> TemporalGraph {
        let edges = self.edges.iter().map(TemporalEdge::reversed).collect();
        TemporalGraph::from_edges(self.num_vertices, edges)
    }

    /// Rough number of heap bytes used by this graph (edge array plus the two
    /// CSR indexes). Used by the space-consumption experiment (Fig. 7).
    pub fn approx_bytes(&self) -> usize {
        self.edges.len() * std::mem::size_of::<TemporalEdge>()
            + (self.out_offsets.len() + self.in_offsets.len()) * std::mem::size_of::<usize>()
            + (self.out_entries.len() + self.in_entries.len()) * std::mem::size_of::<AdjEntry>()
    }
}

fn build_adjacency_into(
    num_vertices: usize,
    edges: &[TemporalEdge],
    outgoing: bool,
    offsets: &mut Vec<usize>,
    entries: &mut Vec<AdjEntry>,
) {
    offsets.clear();
    offsets.resize(num_vertices + 1, 0);
    for e in edges {
        let key = if outgoing { e.src } else { e.dst } as usize;
        offsets[key + 1] += 1;
    }
    for i in 1..offsets.len() {
        offsets[i] += offsets[i - 1];
    }
    entries.clear();
    entries.resize(edges.len(), AdjEntry { neighbor: 0, time: 0, edge: 0 });
    // Edges are globally time-sorted, so filling in order keeps every
    // per-vertex bucket time-sorted as well. `offsets[key]` doubles as the
    // fill cursor of bucket `key`; after the pass it holds the bucket *end*,
    // which the right-shift below turns back into bucket starts.
    for (id, e) in edges.iter().enumerate() {
        let (key, neighbor) = if outgoing { (e.src, e.dst) } else { (e.dst, e.src) };
        let slot = offsets[key as usize];
        entries[slot] = AdjEntry { neighbor, time: e.time, edge: id as EdgeId };
        offsets[key as usize] += 1;
    }
    for i in (1..offsets.len()).rev() {
        offsets[i] = offsets[i - 1];
    }
    offsets[0] = 0;
}

fn slice_by_time(entries: &[AdjEntry], window: TimeInterval) -> &[AdjEntry] {
    let lo = entries.partition_point(|a| a.time < window.begin());
    let hi = entries.partition_point(|a| a.time <= window.end());
    &entries[lo..hi]
}

fn distinct_times(entries: &[AdjEntry]) -> Vec<Timestamp> {
    let mut ts: Vec<Timestamp> = entries.iter().map(|a| a.time).collect();
    ts.dedup();
    ts
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The running-example graph of Fig. 1(a) in the paper.
    ///
    /// Vertex mapping: s=0, a=1, b=2, c=3, d=4, e=5, f=6, t=7.
    pub(crate) fn figure1_graph() -> TemporalGraph {
        let edges = vec![
            TemporalEdge::new(0, 1, 3), // s -> a @ 3
            TemporalEdge::new(0, 2, 2), // s -> b @ 2
            TemporalEdge::new(0, 4, 4), // s -> d @ 4
            TemporalEdge::new(1, 4, 5), // a -> d @ 5
            TemporalEdge::new(2, 3, 3), // b -> c @ 3
            TemporalEdge::new(2, 6, 5), // b -> f @ 5
            TemporalEdge::new(2, 7, 6), // b -> t @ 6
            TemporalEdge::new(3, 6, 4), // c -> f @ 4
            TemporalEdge::new(3, 7, 7), // c -> t @ 7
            TemporalEdge::new(4, 7, 2), // d -> t @ 2
            TemporalEdge::new(5, 3, 6), // e -> c @ 6
            TemporalEdge::new(6, 2, 5), // f -> b @ 5
            TemporalEdge::new(6, 5, 5), // f -> e @ 5
        ];
        TemporalGraph::from_edges(8, edges)
    }

    #[test]
    fn basic_counts() {
        let g = figure1_graph();
        assert_eq!(g.num_vertices(), 8);
        assert_eq!(g.num_edges(), 13);
        assert!(!g.is_empty());
        assert_eq!(g.vertices().count(), 8);
    }

    #[test]
    fn edges_are_time_sorted_and_ids_match() {
        let g = figure1_graph();
        let edges = g.edges();
        for w in edges.windows(2) {
            assert!(w[0].time <= w[1].time);
        }
        for (i, e) in edges.iter().enumerate() {
            assert_eq!(g.edge(i as EdgeId), *e);
            assert_eq!(g.find_edge(e.src, e.dst, e.time), Some(i as EdgeId));
        }
        assert!(g.find_edge(0, 7, 99).is_none());
        assert!(g.has_edge(0, 2, 2));
        assert!(!g.has_edge(2, 0, 2));
    }

    #[test]
    fn adjacency_is_time_sorted() {
        let g = figure1_graph();
        for u in g.vertices() {
            for w in g.out_neighbors(u).windows(2) {
                assert!(w[0].time <= w[1].time);
            }
            for w in g.in_neighbors(u).windows(2) {
                assert!(w[0].time <= w[1].time);
            }
        }
        // s has out-neighbours b@2, a@3, d@4 in that temporal order.
        let outs: Vec<(VertexId, Timestamp)> =
            g.out_neighbors(0).iter().map(|a| (a.neighbor, a.time)).collect();
        assert_eq!(outs, vec![(2, 2), (1, 3), (4, 4)]);
        // t has in-neighbours d@2, b@6, c@7.
        let ins: Vec<(VertexId, Timestamp)> =
            g.in_neighbors(7).iter().map(|a| (a.neighbor, a.time)).collect();
        assert_eq!(ins, vec![(4, 2), (2, 6), (3, 7)]);
    }

    #[test]
    fn adjacency_entries_reference_correct_edges() {
        let g = figure1_graph();
        for u in g.vertices() {
            for a in g.out_neighbors(u) {
                let e = g.edge(a.edge);
                assert_eq!(e.src, u);
                assert_eq!(e.dst, a.neighbor);
                assert_eq!(e.time, a.time);
            }
            for a in g.in_neighbors(u) {
                let e = g.edge(a.edge);
                assert_eq!(e.dst, u);
                assert_eq!(e.src, a.neighbor);
                assert_eq!(e.time, a.time);
            }
        }
    }

    #[test]
    fn degrees_and_max_degree() {
        let g = figure1_graph();
        assert_eq!(g.out_degree(0), 3);
        assert_eq!(g.in_degree(0), 0);
        assert_eq!(g.in_degree(7), 3);
        assert_eq!(g.out_degree(7), 0);
        assert_eq!(g.max_degree(), 3);
    }

    #[test]
    fn windows_and_times() {
        let g = figure1_graph();
        let w = TimeInterval::new(2, 7);
        assert_eq!(g.out_neighbors_in(0, w).len(), 3);
        assert_eq!(g.out_neighbors_in(0, TimeInterval::new(3, 4)).len(), 2);
        assert_eq!(g.in_neighbors_in(7, TimeInterval::new(3, 6)).len(), 1);
        assert_eq!(g.out_times(2), vec![3, 5, 6]);
        assert_eq!(g.in_times(4), vec![4, 5]);
        assert_eq!(g.timestamps(), vec![2, 3, 4, 5, 6, 7]);
        assert_eq!(g.num_timestamps(), 6);
        assert_eq!(g.time_range(), Some(TimeInterval::new(2, 7)));
    }

    #[test]
    fn projection_filters_by_time() {
        let g = figure1_graph();
        let p = g.project(TimeInterval::new(3, 5));
        assert_eq!(p.num_vertices(), g.num_vertices());
        assert!(p.edges().iter().all(|e| (3..=5).contains(&e.time)));
        assert_eq!(p.num_edges(), 8);
        // Projection over the full range is the identity on edges.
        let full = g.project(g.time_range().unwrap());
        assert_eq!(full.edges(), g.edges());
    }

    #[test]
    fn edge_induced_and_mask() {
        let g = figure1_graph();
        let sub = g.edge_induced(|_, e| e.src == 0);
        assert_eq!(sub.num_edges(), 3);
        let mut mask = vec![false; g.num_edges()];
        mask[0] = true;
        mask[3] = true;
        let sub = g.edge_induced_from_mask(&mask);
        assert_eq!(sub.num_edges(), 2);
        assert_eq!(sub.edges()[0], g.edge(0));
        assert_eq!(sub.edges()[1], g.edge(3));
    }

    #[test]
    fn assign_edge_induced_matches_the_allocating_variant() {
        let g = figure1_graph();
        let mut reused = TemporalGraph::default();
        // Reassign the same storage across several different filters; each
        // result must be indistinguishable from a freshly built subgraph.
        for (pass, src_filter) in [0u32, 2, 3, 6, 99].into_iter().enumerate() {
            reused.assign_edge_induced(&g, |_, e| e.src == src_filter);
            let fresh = g.edge_induced(|_, e| e.src == src_filter);
            assert_eq!(reused.num_vertices(), fresh.num_vertices(), "pass {pass}");
            assert_eq!(reused.edges(), fresh.edges(), "pass {pass}");
            for u in fresh.vertices() {
                assert_eq!(reused.out_neighbors(u), fresh.out_neighbors(u), "pass {pass}");
                assert_eq!(reused.in_neighbors(u), fresh.in_neighbors(u), "pass {pass}");
            }
        }
        // Growing back after an empty assignment also works.
        reused.assign_edge_induced(&g, |_, _| true);
        assert_eq!(reused.edges(), g.edges());
    }

    #[test]
    fn extend_with_edges_matches_from_scratch_build() {
        let g = figure1_graph();
        // Start from a prefix of the figure-1 edges, then stream the rest in
        // two unsorted batches with duplicates; the result must be
        // indistinguishable from the one-shot build.
        let all: Vec<TemporalEdge> = g.edges().to_vec();
        let mut streamed = TemporalGraph::from_edges(8, all[..5].to_vec());
        assert_eq!(streamed.epoch(), GraphEpoch::ZERO);

        let mut batch1: Vec<TemporalEdge> = all[5..9].to_vec();
        batch1.reverse();
        batch1.push(all[2]); // duplicate of a resident edge
        let e1 = streamed.extend_with_edges(&batch1);
        assert_eq!(e1.value(), 1);
        assert_eq!(streamed.epoch(), e1);

        let mut batch2: Vec<TemporalEdge> = all[9..].to_vec();
        batch2.push(batch2[0]); // duplicate inside the batch
        batch2.swap(0, 1);
        let e2 = streamed.extend_with_edges(&batch2);
        assert_eq!(e2.value(), 2);

        assert_eq!(streamed.num_vertices(), g.num_vertices());
        assert_eq!(streamed.edges(), g.edges());
        for u in g.vertices() {
            assert_eq!(streamed.out_neighbors(u), g.out_neighbors(u));
            assert_eq!(streamed.in_neighbors(u), g.in_neighbors(u));
        }
    }

    #[test]
    fn extend_with_edges_bumps_epoch_even_for_duplicate_batches() {
        let mut g = figure1_graph();
        let before = g.num_edges();
        let dup = [g.edge(0)];
        let e = g.extend_with_edges(&dup);
        assert_eq!(e.value(), 1, "all-duplicate batches still advance the epoch");
        assert_eq!(g.num_edges(), before);
        // A batch that grows the vertex range is normalized like from_edges.
        let e = g.extend_with_edges(&[TemporalEdge::new(11, 3, 1)]);
        assert_eq!(e.value(), 2);
        assert_eq!(g.num_vertices(), 12);
        assert_eq!(g.edges()[0], TemporalEdge::new(11, 3, 1), "new earliest edge sorts first");
    }

    #[test]
    #[should_panic(expected = "edge mask length mismatch")]
    fn mask_length_mismatch_panics() {
        let g = figure1_graph();
        let _ = g.edge_induced_from_mask(&[true]);
    }

    #[test]
    fn reversed_graph_swaps_directions() {
        let g = figure1_graph();
        let r = g.reversed();
        assert_eq!(r.num_edges(), g.num_edges());
        for e in g.edges() {
            assert!(r.has_edge(e.dst, e.src, e.time));
        }
        // Reversing twice gives back the original edge set.
        let rr = r.reversed();
        assert_eq!(rr.edges(), g.edges());
    }

    #[test]
    fn duplicates_are_removed_and_vertex_count_grows() {
        let edges = vec![
            TemporalEdge::new(0, 1, 5),
            TemporalEdge::new(0, 1, 5),
            TemporalEdge::new(9, 3, 1),
        ];
        let g = TemporalGraph::from_edges(2, edges);
        assert_eq!(g.num_edges(), 2);
        assert_eq!(g.num_vertices(), 10);
    }

    #[test]
    fn parallel_edges_with_distinct_times_are_kept() {
        let edges = vec![
            TemporalEdge::new(0, 1, 5),
            TemporalEdge::new(0, 1, 6),
            TemporalEdge::new(0, 1, 7),
        ];
        let g = TemporalGraph::from_edges(2, edges);
        assert_eq!(g.num_edges(), 3);
        assert_eq!(g.out_degree(0), 3);
    }

    #[test]
    fn empty_graph_behaviour() {
        let g = TemporalGraph::empty(4);
        assert_eq!(g.num_vertices(), 4);
        assert_eq!(g.num_edges(), 0);
        assert!(g.is_empty());
        assert_eq!(g.max_degree(), 0);
        assert!(g.time_range().is_none());
        assert!(g.timestamps().is_empty());
        assert!(g.non_isolated_vertices().is_empty());
        assert_eq!(g.out_neighbors(0).len(), 0);
    }

    #[test]
    fn non_isolated_vertices_reported() {
        let g = TemporalGraph::from_edges(6, vec![TemporalEdge::new(1, 4, 2)]);
        assert_eq!(g.non_isolated_vertices(), vec![1, 4]);
    }

    #[test]
    fn approx_bytes_is_monotone_in_edges() {
        let small = TemporalGraph::from_edges(4, vec![TemporalEdge::new(0, 1, 1)]);
        let big = figure1_graph();
        assert!(big.approx_bytes() > small.approx_bytes());
    }
}
