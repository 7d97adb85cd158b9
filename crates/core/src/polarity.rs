//! Polarity time computation (Algorithm 3).
//!
//! For the query `(s, t, [τ_b, τ_e])` every vertex `u` gets
//!
//! * an **earliest arrival time** `A(u)`: the smallest arrival time over all
//!   strict temporal paths from `s` to `u` within the window that do not
//!   pass through `t`, with the sentinel `A(s) = τ_b − 1`, and
//! * a **latest departure time** `D(u)`: the largest departure time over all
//!   strict temporal paths from `u` to `t` within the window that do not
//!   pass through `s`, with the sentinel `D(t) = τ_e + 1`.
//!
//! Unreachable vertices keep `None` (the paper's `+∞` / `−∞`).
//!
//! The computation is a label-correcting BFS over time-sorted adjacency —
//! `O(n + m)` — and is the reason `QuickUBG` beats the Dijkstra-based
//! `tgTSG` by the `O(log n)` factor examined in Exp-5 / Fig. 9.

use std::collections::VecDeque;
use tspg_graph::{TemporalGraph, TimeInterval, Timestamp, VertexId};

/// Earliest arrival and latest departure times of every vertex for one query.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct PolarityTimes {
    /// `A(u)` per vertex; `None` encodes `+∞` (unreachable from `s`).
    pub arrival: Vec<Option<Timestamp>>,
    /// `D(u)` per vertex; `None` encodes `−∞` (cannot reach `t`).
    pub departure: Vec<Option<Timestamp>>,
}

impl PolarityTimes {
    /// Earliest arrival time of `u`, if `u` is reachable from the source.
    #[inline]
    pub fn arrival(&self, u: VertexId) -> Option<Timestamp> {
        self.arrival.get(u as usize).copied().flatten()
    }

    /// Latest departure time of `u`, if `u` can reach the target.
    #[inline]
    pub fn departure(&self, u: VertexId) -> Option<Timestamp> {
        self.departure.get(u as usize).copied().flatten()
    }

    /// Lemma 1: `true` iff the edge `e(u, v, τ)` lies on some strict temporal
    /// path from the source to the target within the window.
    #[inline]
    pub fn admits_edge(&self, u: VertexId, v: VertexId, time: Timestamp) -> bool {
        matches!(
            (self.arrival(u), self.departure(v)),
            (Some(a), Some(d)) if a < time && time < d
        )
    }

    /// Rough heap usage of the two label arrays.
    pub fn approx_bytes(&self) -> usize {
        (self.arrival.len() + self.departure.len()) * std::mem::size_of::<Option<Timestamp>>()
    }
}

/// Reusable traversal state of [`compute_polarity_into`]: the BFS queue and
/// the in-queue flags. One instance per worker amortises both allocations
/// across a whole batch of queries.
#[derive(Clone, Debug, Default)]
pub struct PolarityScratch {
    queue: VecDeque<VertexId>,
    queued: Vec<bool>,
}

/// Computes `A(u)` and `D(u)` for every vertex (Algorithm 3).
///
/// Out-of-range `s`/`t` yield all-`None` tables (the query is unanswerable).
pub fn compute_polarity(
    graph: &TemporalGraph,
    s: VertexId,
    t: VertexId,
    window: TimeInterval,
) -> PolarityTimes {
    let mut times = PolarityTimes::default();
    compute_polarity_into(graph, s, t, window, &mut times, &mut PolarityScratch::default());
    times
}

/// In-place variant of [`compute_polarity`]: writes the labels into `times`
/// and runs the two BFS passes out of `scratch`, so a warm caller performs
/// no allocation.
pub fn compute_polarity_into(
    graph: &TemporalGraph,
    s: VertexId,
    t: VertexId,
    window: TimeInterval,
    times: &mut PolarityTimes,
    scratch: &mut PolarityScratch,
) {
    let n = graph.num_vertices();
    times.arrival.clear();
    times.arrival.resize(n, None);
    times.departure.clear();
    times.departure.resize(n, None);
    if (s as usize) >= n || (t as usize) >= n {
        return;
    }
    forward_pass(graph, s, Some(t), window, &mut times.arrival, scratch);
    backward_pass(graph, s, t, window, &mut times.departure, scratch);
}

/// Forward half of Algorithm 3: earliest arrival from `s` within `window`,
/// never relaxing into `avoid` (the query target, when there is one). The
/// caller has cleared and sized `arrival`.
fn forward_pass(
    graph: &TemporalGraph,
    s: VertexId,
    avoid: Option<VertexId>,
    window: TimeInterval,
    arrival: &mut [Option<Timestamp>],
    scratch: &mut PolarityScratch,
) {
    let queue = &mut scratch.queue;
    let queued = &mut scratch.queued;
    arrival[s as usize] = Some(window.begin() - 1);
    queue.clear();
    queue.push_back(s);
    queued.clear();
    queued.resize(arrival.len(), false);
    queued[s as usize] = true;
    while let Some(u) = queue.pop_front() {
        queued[u as usize] = false;
        let reach = arrival[u as usize].expect("queued vertices carry labels");
        for entry in graph.out_neighbors_in(u, window) {
            if Some(entry.neighbor) == avoid || entry.time <= reach {
                continue;
            }
            let v = entry.neighbor as usize;
            if arrival[v].is_none_or(|cur| entry.time < cur) {
                arrival[v] = Some(entry.time);
                // A vertex arriving exactly at τ_e cannot be extended further,
                // but other in-edges may still improve it, so it is re-queued
                // only when it can possibly relax someone else.
                if entry.time != window.end() && !queued[v] {
                    queued[v] = true;
                    queue.push_back(entry.neighbor);
                }
            }
        }
    }
}

/// Backward half of Algorithm 3: latest departure towards `t` within
/// `window`, never relaxing into `s`. The caller has cleared and sized
/// `departure`.
fn backward_pass(
    graph: &TemporalGraph,
    s: VertexId,
    t: VertexId,
    window: TimeInterval,
    departure: &mut [Option<Timestamp>],
    scratch: &mut PolarityScratch,
) {
    let queue = &mut scratch.queue;
    let queued = &mut scratch.queued;
    departure[t as usize] = Some(window.end() + 1);
    queue.clear();
    queue.push_back(t);
    queued.clear();
    queued.resize(departure.len(), false);
    queued[t as usize] = true;
    while let Some(u) = queue.pop_front() {
        queued[u as usize] = false;
        let depart = departure[u as usize].expect("queued vertices carry labels");
        for entry in graph.in_neighbors_in(u, window) {
            if entry.neighbor == s || entry.time >= depart {
                continue;
            }
            let v = entry.neighbor as usize;
            if departure[v].is_none_or(|cur| entry.time > cur) {
                departure[v] = Some(entry.time);
                if entry.time != window.begin() && !queued[v] {
                    queued[v] = true;
                    queue.push_back(entry.neighbor);
                }
            }
        }
    }
}

/// The **target-agnostic** forward half of the polarity computation: the
/// plain earliest arrival `A₀(u)` from `s` within a window.
///
/// The forward pass of Algorithm 3 depends on the target only through the
/// "never relax into `t`" tightening; a frontier drops it, so `A₀(u) ≤
/// A(u)` for every query target. No pipeline path consumes a frontier: it
/// is the reference an [`ArrivalProfile`] clamp must reproduce byte for
/// byte (`tests/arrival_profile.rs`).
///
/// **Window restriction is exact for same-begin windows.** A strict
/// temporal path arriving at time `τ` uses only edge times in
/// `[begin, τ]`, so for any member window `[begin, e]` with the frontier's
/// begin, clamping (`A₀(u)` kept iff `A₀(u) ≤ e`) yields precisely the
/// arrivals of a fresh target-agnostic pass over `[begin, e]`. Arbitrary
/// begins need the step function an [`ArrivalProfile`] records.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SourceFrontier {
    source: VertexId,
    window: TimeInterval,
    /// `A₀(u)` per vertex over the hull window; `None` = unreachable.
    arrival: Vec<Option<Timestamp>>,
    /// Vertices with a label (including `s` itself), ascending.
    reachable: Vec<VertexId>,
}

impl Default for SourceFrontier {
    /// An empty frontier (no vertex labelled) over the degenerate window
    /// `[0, 0]` — the buffer a profile clamp
    /// ([`ArrivalProfile::clamp_into`]) fills in place.
    fn default() -> Self {
        Self {
            source: 0,
            window: TimeInterval::point(0),
            arrival: Vec::new(),
            reachable: Vec::new(),
        }
    }
}

impl SourceFrontier {
    /// Runs the target-agnostic forward pass from `source` over `window`.
    ///
    /// An out-of-range source yields an empty frontier (no vertex labelled),
    /// mirroring [`compute_polarity`]'s all-`None` tables.
    pub fn compute(graph: &TemporalGraph, source: VertexId, window: TimeInterval) -> Self {
        let n = graph.num_vertices();
        let mut arrival = vec![None; n];
        if (source as usize) < n {
            forward_pass(
                graph,
                source,
                None,
                window,
                &mut arrival,
                &mut PolarityScratch::default(),
            );
        }
        let reachable =
            arrival.iter().enumerate().filter_map(|(v, a)| a.map(|_| v as VertexId)).collect();
        Self { source, window, arrival, reachable }
    }

    /// The source vertex the frontier was computed from.
    pub fn source(&self) -> VertexId {
        self.source
    }

    /// The hull window the forward pass ran over.
    pub fn window(&self) -> TimeInterval {
        self.window
    }

    /// Vertices carrying an arrival label, ascending.
    pub fn reachable(&self) -> &[VertexId] {
        &self.reachable
    }

    /// `A₀(u)` over the hull window.
    #[inline]
    pub fn arrival(&self, u: VertexId) -> Option<Timestamp> {
        self.arrival.get(u as usize).copied().flatten()
    }

    /// Returns `true` if this frontier's forward pass can be restricted to
    /// `window` exactly: same begin, end within the hull.
    pub fn covers(&self, source: VertexId, window: TimeInterval) -> bool {
        self.source == source
            && self.window.begin() == window.begin()
            && self.window.contains_interval(&window)
    }
}

/// A per-source **arrival profile**: earliest arrival at every vertex as a
/// step function of the query's *start bound*, computed by one
/// target-agnostic forward pass over a hull window and clamped — exactly —
/// at any member `(begin, end)` inside that hull.
///
/// Where a [`SourceFrontier`] stores one arrival per vertex (valid for a
/// single shared begin), the profile stores per vertex the **Pareto front**
/// of `(first-edge time f, arrival a)` pairs over strict temporal walks
/// from the source inside the hull: `(f₁, a₁)` is dominated by `(f₂, a₂)`
/// iff `f₂ ≥ f₁ ∧ a₂ ≤ a₁` (a later start that arrives no later answers
/// every query the earlier start answers). Kept non-dominated, the front is
/// strictly ascending in both `f` and `a`, so for a member window
/// `[b, e] ⊆ hull` the earliest arrival at `v` is the *first* pair with
/// `f ≥ b`, kept iff its `a ≤ e` — a walk is valid in `[b, e]` iff its
/// strictly increasing edge times all lie in `[b, e]`, i.e. iff `f ≥ b`
/// and `a ≤ e`. Clamping therefore reproduces a fresh target-agnostic pass
/// over `[b, e]` for **every** begin in the hull, not just a shared one —
/// this is the earliest-arrival-as-function-of-start-bound formulation of
/// Huang et al.'s temporal traversals.
///
/// The representation is a flattened CSR (`starts`/`pairs`, following the
/// Kairos compact time-indexed-layout direction): three dense arrays,
/// sized by [`ArrivalProfile::approx_bytes`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ArrivalProfile {
    source: VertexId,
    window: TimeInterval,
    /// CSR offsets into `pairs`, length `num_vertices + 1`.
    starts: Vec<u32>,
    /// Concatenated per-vertex Pareto fronts, each strictly ascending in
    /// both components.
    pairs: Vec<(Timestamp, Timestamp)>,
    /// Vertices with a non-empty front, plus the source itself, ascending.
    reachable: Vec<VertexId>,
}

impl ArrivalProfile {
    /// Runs the target-agnostic Pareto forward pass from `source` over the
    /// hull `window`.
    ///
    /// An out-of-range source yields an empty profile whose every clamp is
    /// the empty frontier, mirroring [`SourceFrontier::compute`].
    pub fn compute(graph: &TemporalGraph, source: VertexId, window: TimeInterval) -> Self {
        let n = graph.num_vertices();
        let mut fronts: Vec<Vec<(Timestamp, Timestamp)>> = vec![Vec::new(); n];
        if (source as usize) < n {
            let mut queue = VecDeque::new();
            let mut queued = vec![false; n];
            queue.push_back(source);
            queued[source as usize] = true;
            while let Some(u) = queue.pop_front() {
                queued[u as usize] = false;
                for entry in graph.out_neighbors_in(u, window) {
                    let v = entry.neighbor;
                    // Walks into the source are never useful: a fresh start
                    // at the outgoing edge dominates them (larger `f`, same
                    // arrival). Self-loops are dominated for the same reason.
                    if v == source || v == u {
                        continue;
                    }
                    let tau = entry.time;
                    let first = if u == source {
                        // Fresh start: the walk's first edge is this edge.
                        tau
                    } else {
                        // Best extendable walk into `u`: the last front pair
                        // arriving strictly before `tau` (fronts ascend in
                        // both components, so it carries the largest `f`).
                        let front = &fronts[u as usize];
                        let idx = front.partition_point(|&(_, a)| a < tau);
                        if idx == 0 {
                            continue;
                        }
                        front[idx - 1].0
                    };
                    if insert_front_pair(&mut fronts[v as usize], (first, tau))
                        && tau != window.end()
                        && !queued[v as usize]
                    {
                        // A pair arriving exactly at the hull end cannot
                        // extend any walk, so it never needs re-relaxing.
                        queued[v as usize] = true;
                        queue.push_back(v);
                    }
                }
            }
        }
        let mut starts = Vec::with_capacity(n + 1);
        let mut pairs = Vec::new();
        let mut reachable = Vec::new();
        starts.push(0u32);
        for (v, front) in fronts.iter().enumerate() {
            pairs.extend_from_slice(front);
            starts.push(pairs.len() as u32);
            if !front.is_empty() || (v as VertexId == source && (source as usize) < n) {
                reachable.push(v as VertexId);
            }
        }
        Self { source, window, starts, pairs, reachable }
    }

    /// The source vertex the profile was computed from.
    pub fn source(&self) -> VertexId {
        self.source
    }

    /// The hull window the forward pass ran over.
    pub fn window(&self) -> TimeInterval {
        self.window
    }

    /// The Pareto front of `(first-edge time, arrival)` pairs at `v`.
    pub fn front(&self, v: VertexId) -> &[(Timestamp, Timestamp)] {
        let lo = self.starts[v as usize] as usize;
        let hi = self.starts[v as usize + 1] as usize;
        &self.pairs[lo..hi]
    }

    /// Returns `true` if clamping this profile at `window` is exact: same
    /// source, window inside the hull. Unlike [`SourceFrontier::covers`]
    /// the begin may differ — that is the point of the profile.
    pub fn covers(&self, source: VertexId, window: TimeInterval) -> bool {
        self.source == source && self.window.contains_interval(&window)
    }

    /// Rough heap usage of the flattened profile.
    pub fn approx_bytes(&self) -> usize {
        std::mem::size_of::<Self>()
            + self.starts.len() * std::mem::size_of::<u32>()
            + self.pairs.len() * std::mem::size_of::<(Timestamp, Timestamp)>()
            + self.reachable.len() * std::mem::size_of::<VertexId>()
    }

    /// Allocating convenience wrapper around [`Self::clamp_into`].
    pub fn clamp(&self, window: TimeInterval) -> SourceFrontier {
        let mut out = SourceFrontier::default();
        self.clamp_into(window, &mut out);
        out
    }

    /// Clamps the profile at a member `window`, writing a [`SourceFrontier`]
    /// that is byte-identical to `SourceFrontier::compute` over that window
    /// — for every begin inside the hull.
    ///
    /// # Panics
    ///
    /// Panics if the profile does not cover `window`.
    pub fn clamp_into(&self, window: TimeInterval, out: &mut SourceFrontier) {
        assert!(
            self.covers(self.source, window),
            "profile over {} from vertex {} cannot answer {window}",
            self.window,
            self.source,
        );
        let n = self.starts.len() - 1;
        out.source = self.source;
        out.window = window;
        out.arrival.clear();
        out.arrival.resize(n, None);
        out.reachable.clear();
        let (begin, end) = (window.begin(), window.end());
        for &v in &self.reachable {
            let arrival = if v == self.source {
                // The source carries the same sentinel a fresh pass writes.
                Some(begin - 1)
            } else {
                let front = self.front(v);
                let idx = front.partition_point(|&(f, _)| f < begin);
                front.get(idx).map(|&(_, a)| a).filter(|&a| a <= end)
            };
            if let Some(a) = arrival {
                out.arrival[v as usize] = Some(a);
                out.reachable.push(v);
            }
        }
    }
}

/// Inserts `pair` into a Pareto front kept strictly ascending in both
/// components; returns `false` (front untouched) when an existing pair
/// dominates it, and prunes the pairs it dominates otherwise.
fn insert_front_pair(
    front: &mut Vec<(Timestamp, Timestamp)>,
    pair: (Timestamp, Timestamp),
) -> bool {
    let (f, a) = pair;
    let idx = front.partition_point(|&(pf, _)| pf < f);
    // Ascending arrivals make `front[idx]` the sharpest pair with `pf ≥ f`:
    // if it does not dominate `(f, a)`, nothing later does either.
    if front.get(idx).is_some_and(|&(_, pa)| pa <= a) {
        return false;
    }
    // Pairs the newcomer dominates: earlier starts arriving no earlier
    // (a contiguous run ending at `idx`), plus an equal-`f` pair at `idx`
    // (which, having survived the check above, must arrive later).
    let hi = if front.get(idx).is_some_and(|&(pf, _)| pf == f) { idx + 1 } else { idx };
    let lo = front[..idx].partition_point(|&(_, pa)| pa < a);
    front.splice(lo..hi, [pair]);
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use tspg_graph::fixtures::{fig1, figure1_graph, figure1_query};
    use tspg_graph::TemporalEdge;

    #[test]
    fn matches_figure_3_tables() {
        let g = figure1_graph();
        let (s, t, w) = figure1_query();
        let p = compute_polarity(&g, s, t, w);
        // Fig. 3(a)
        assert_eq!(p.arrival(fig1::S), Some(1));
        assert_eq!(p.arrival(fig1::A), Some(3));
        assert_eq!(p.arrival(fig1::B), Some(2));
        assert_eq!(p.arrival(fig1::C), Some(3));
        assert_eq!(p.arrival(fig1::D), Some(3));
        assert_eq!(p.arrival(fig1::E), Some(5));
        assert_eq!(p.arrival(fig1::F), Some(4));
        assert_eq!(p.arrival(fig1::T), None);
        // Fig. 3(b)
        assert_eq!(p.departure(fig1::T), Some(8));
        assert_eq!(p.departure(fig1::B), Some(6));
        assert_eq!(p.departure(fig1::C), Some(7));
        assert_eq!(p.departure(fig1::D), Some(2));
        assert_eq!(p.departure(fig1::E), Some(6));
        assert_eq!(p.departure(fig1::F), Some(5));
        assert_eq!(p.departure(fig1::A), None);
        assert_eq!(p.departure(fig1::S), None);
    }

    #[test]
    fn admits_edge_reproduces_example_4() {
        let g = figure1_graph();
        let (s, t, w) = figure1_query();
        let p = compute_polarity(&g, s, t, w);
        // Excluded: e(s, a, 3) because D(a) = −∞, e(d, t, 2) because A(d) = 3 > 2.
        assert!(!p.admits_edge(fig1::S, fig1::A, 3));
        assert!(!p.admits_edge(fig1::D, fig1::T, 2));
        // Kept examples from Fig. 3(c).
        assert!(p.admits_edge(fig1::S, fig1::B, 2));
        assert!(p.admits_edge(fig1::C, fig1::T, 7));
        assert!(p.admits_edge(fig1::C, fig1::F, 4));
        // e(b, f, 5) fails the strict constraint: D(f) = 5 is not > 5.
        assert!(!p.admits_edge(fig1::B, fig1::F, 5));
    }

    #[test]
    fn window_narrowing_removes_labels() {
        let g = figure1_graph();
        let p = compute_polarity(&g, fig1::S, fig1::T, TimeInterval::new(3, 5));
        // With the window [3, 5] vertex b is only reachable at time... never:
        // the only edge into b inside the window is f -> b @5, and f is
        // reached at 4 (via s? s->b is at 2, outside). So b is unreachable.
        assert_eq!(p.arrival(fig1::B), None);
        assert_eq!(p.departure(fig1::T), Some(6));
    }

    #[test]
    fn out_of_range_endpoints_yield_empty_tables() {
        let g = figure1_graph();
        let p = compute_polarity(&g, 99, fig1::T, TimeInterval::new(2, 7));
        assert!(p.arrival.iter().all(Option::is_none));
        assert!(p.departure.iter().all(Option::is_none));
        assert!(!p.admits_edge(fig1::S, fig1::B, 2));
    }

    #[test]
    fn source_equals_target() {
        let g = figure1_graph();
        let p = compute_polarity(&g, fig1::S, fig1::S, TimeInterval::new(2, 7));
        // A(s) and D(s) both carry their sentinels; no edge can satisfy
        // Lemma 1 against the same vertex both ways unless a cycle exists.
        assert_eq!(p.arrival(fig1::S), Some(1));
        assert_eq!(p.departure(fig1::S), Some(8));
    }

    #[test]
    fn chain_graph_labels() {
        // 0 -1-> 1 -2-> 2 -3-> 3
        let g = TemporalGraph::from_edges(
            4,
            vec![
                TemporalEdge::new(0, 1, 1),
                TemporalEdge::new(1, 2, 2),
                TemporalEdge::new(2, 3, 3),
            ],
        );
        let p = compute_polarity(&g, 0, 3, TimeInterval::new(1, 3));
        assert_eq!(p.arrival(1), Some(1));
        assert_eq!(p.arrival(2), Some(2));
        assert_eq!(p.arrival(3), None); // never relaxed into t
        assert_eq!(p.departure(2), Some(3));
        assert_eq!(p.departure(1), Some(2));
        assert_eq!(p.departure(0), None); // never relaxed into s
        assert!(p.admits_edge(0, 1, 1));
        assert!(p.admits_edge(1, 2, 2));
        assert!(p.admits_edge(2, 3, 3));
    }

    #[test]
    fn frontier_arrival_lower_bounds_the_avoiding_pass() {
        let g = figure1_graph();
        let (s, t, w) = figure1_query();
        let frontier = SourceFrontier::compute(&g, s, w);
        let p = compute_polarity(&g, s, t, w);
        assert_eq!(frontier.source(), s);
        assert_eq!(frontier.window(), w);
        for u in g.vertices() {
            if let Some(a) = p.arrival(u) {
                let a0 = frontier.arrival(u).expect("avoid-t reachability implies reachability");
                assert!(a0 <= a, "vertex {u}: A0={a0} must not exceed A={a}");
            }
        }
        // The frontier does not avoid t, so t itself gets a label here
        // (reachable via b@6 / c@7) even though A(t) is None by definition.
        assert_eq!(p.arrival(fig1::T), None);
        assert!(frontier.arrival(fig1::T).is_some());
        assert!(frontier.reachable().contains(&fig1::T));
        assert!(frontier.reachable().windows(2).all(|p| p[0] < p[1]), "ascending");
    }

    #[test]
    fn frontier_restriction_equals_a_fresh_pass_on_same_begin_windows() {
        // For every narrower same-begin window, clamping the hull frontier
        // must equal a fresh target-agnostic pass over that window.
        let g = figure1_graph();
        let hull = TimeInterval::new(2, 7);
        let frontier = SourceFrontier::compute(&g, fig1::S, hull);
        for end in 2..=7 {
            let member = TimeInterval::new(2, end);
            let fresh = SourceFrontier::compute(&g, fig1::S, member);
            for u in g.vertices() {
                let clamped = frontier.arrival(u).filter(|&a| a <= end);
                assert_eq!(clamped, fresh.arrival(u), "vertex {u}, end {end}");
            }
        }
    }

    #[test]
    fn frontier_covers_checks_source_and_window() {
        let g = figure1_graph();
        let frontier = SourceFrontier::compute(&g, fig1::S, TimeInterval::new(2, 7));
        assert!(frontier.covers(fig1::S, TimeInterval::new(2, 7)));
        assert!(frontier.covers(fig1::S, TimeInterval::new(2, 4)));
        assert!(!frontier.covers(fig1::B, TimeInterval::new(2, 7)), "different source");
        assert!(!frontier.covers(fig1::S, TimeInterval::new(3, 7)), "different begin");
        assert!(!frontier.covers(fig1::S, TimeInterval::new(2, 9)), "end beyond the hull");
    }

    #[test]
    fn out_of_range_frontier_source_is_empty() {
        let g = figure1_graph();
        let frontier = SourceFrontier::compute(&g, 99, TimeInterval::new(2, 7));
        assert!(frontier.reachable().is_empty());
        assert_eq!(frontier.arrival(fig1::S), None);
    }

    #[test]
    fn profile_clamp_equals_a_fresh_frontier_for_every_subwindow() {
        // The tentpole identity on the paper's running example: clamping
        // the hull profile at *any* (begin, end) inside the hull is
        // byte-identical to a fresh target-agnostic pass over that window.
        let g = figure1_graph();
        let hull = TimeInterval::new(2, 7);
        let profile = ArrivalProfile::compute(&g, fig1::S, hull);
        assert_eq!(profile.source(), fig1::S);
        assert_eq!(profile.window(), hull);
        for begin in 2..=7 {
            for end in begin..=7 {
                let member = TimeInterval::new(begin, end);
                let fresh = SourceFrontier::compute(&g, fig1::S, member);
                assert_eq!(profile.clamp(member), fresh, "window {member}");
            }
        }
    }

    #[test]
    fn profile_fronts_are_pareto_ordered() {
        let g = figure1_graph();
        let profile = ArrivalProfile::compute(&g, fig1::S, TimeInterval::new(2, 7));
        let mut labelled = 0;
        for v in g.vertices() {
            let front = profile.front(v);
            labelled += usize::from(!front.is_empty());
            assert!(
                front.windows(2).all(|w| w[0].0 < w[1].0 && w[0].1 < w[1].1),
                "front of {v} not strictly ascending: {front:?}"
            );
            assert!(front.iter().all(|&(f, a)| f <= a), "first edge after arrival at {v}");
        }
        assert!(labelled > 0, "figure 1 reaches vertices from s");
        assert!(profile.reachable.contains(&fig1::S), "source is always reachable");
        assert!(profile.approx_bytes() > 0);
    }

    #[test]
    fn profile_covers_any_begin_inside_the_hull() {
        let g = figure1_graph();
        let profile = ArrivalProfile::compute(&g, fig1::S, TimeInterval::new(2, 7));
        assert!(profile.covers(fig1::S, TimeInterval::new(2, 7)));
        assert!(profile.covers(fig1::S, TimeInterval::new(4, 6)), "begins may differ");
        assert!(!profile.covers(fig1::B, TimeInterval::new(2, 7)), "different source");
        assert!(!profile.covers(fig1::S, TimeInterval::new(1, 7)), "begin before the hull");
        assert!(!profile.covers(fig1::S, TimeInterval::new(2, 9)), "end beyond the hull");
    }

    #[test]
    #[should_panic(expected = "cannot answer")]
    fn profile_clamp_rejects_uncovered_windows() {
        let g = figure1_graph();
        let profile = ArrivalProfile::compute(&g, fig1::S, TimeInterval::new(3, 5));
        profile.clamp(TimeInterval::new(2, 5));
    }

    #[test]
    fn out_of_range_profile_source_clamps_to_the_empty_frontier() {
        let g = figure1_graph();
        let profile = ArrivalProfile::compute(&g, 99, TimeInterval::new(2, 7));
        let clamped = profile.clamp(TimeInterval::new(3, 5));
        assert!(clamped.reachable().is_empty());
        assert_eq!(clamped.arrival(fig1::S), None);
    }

    #[test]
    fn profile_clamp_equals_fresh_frontiers_on_random_graphs() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(0xa881);
        for case in 0..25 {
            let n = rng.random_range(5..30);
            let m = rng.random_range(10..150);
            let tmax = rng.random_range(4..24);
            let edges: Vec<TemporalEdge> = (0..m)
                .map(|_| {
                    TemporalEdge::new(
                        rng.random_range(0..n) as VertexId,
                        rng.random_range(0..n) as VertexId,
                        rng.random_range(1..=tmax),
                    )
                })
                .filter(|e| e.src != e.dst)
                .collect();
            let g = TemporalGraph::from_edges(n, edges);
            let s = rng.random_range(0..n) as VertexId;
            let hull = TimeInterval::new(1, tmax);
            let profile = ArrivalProfile::compute(&g, s, hull);
            for begin in 1..=tmax {
                for end in begin..=tmax {
                    let member = TimeInterval::new(begin, end);
                    let fresh = SourceFrontier::compute(&g, s, member);
                    assert_eq!(profile.clamp(member), fresh, "case {case}, window {member}");
                }
            }
        }
    }

    #[test]
    fn agrees_with_dijkstra_baseline_on_random_graphs() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(99);
        for case in 0..30 {
            let n = rng.random_range(5..40);
            let m = rng.random_range(10..200);
            let tmax = rng.random_range(4..30);
            let edges: Vec<TemporalEdge> = (0..m)
                .map(|_| {
                    TemporalEdge::new(
                        rng.random_range(0..n) as VertexId,
                        rng.random_range(0..n) as VertexId,
                        rng.random_range(1..=tmax),
                    )
                })
                .filter(|e| e.src != e.dst)
                .collect();
            let g = TemporalGraph::from_edges(n, edges);
            let s = rng.random_range(0..n) as VertexId;
            let t = rng.random_range(0..n) as VertexId;
            let b = rng.random_range(1..=tmax);
            let w = TimeInterval::new(b, (b + rng.random_range(0..10)).min(tmax));
            let ours = compute_polarity(&g, s, t, w);
            let (a_ref, d_ref) = tspg_baselines::tg_polarity(&g, s, t, w);
            assert_eq!(ours.arrival, a_ref, "arrival mismatch in case {case}");
            assert_eq!(ours.departure, d_ref, "departure mismatch in case {case}");
        }
    }
}
