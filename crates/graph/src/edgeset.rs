//! Canonical edge-set representation of subgraphs.
//!
//! The result of a temporal simple path graph query, and every upper-bound
//! graph, is a subgraph of the input graph that is fully determined by its
//! edge set (the vertex set is induced by the edges — Definition 2). An
//! [`EdgeSet`] stores that edge set in canonical sorted order so that
//! subgraphs coming from different algorithms can be compared for equality,
//! intersected, and measured. A [`PackedEdgeSet`] holds the same edges
//! bit-packed, for sets kept around long after they were computed.

use crate::graph::TemporalGraph;
use crate::types::{TemporalEdge, Timestamp, VertexId};
use std::collections::BTreeSet;
use std::fmt;

/// A set of temporal edges in canonical `(time, src, dst)` order, together
/// with the vertex set they induce.
#[derive(Clone, PartialEq, Eq, Default)]
pub struct EdgeSet {
    edges: Vec<TemporalEdge>,
}

impl EdgeSet {
    /// Creates an empty edge set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Builds an edge set from arbitrary edges (sorted and de-duplicated).
    pub fn from_edges<I>(edges: I) -> Self
    where
        I: IntoIterator<Item = TemporalEdge>,
    {
        let mut edges: Vec<TemporalEdge> = edges.into_iter().collect();
        edges.sort_unstable();
        edges.dedup();
        Self { edges }
    }

    /// The edge set of an entire graph.
    pub fn from_graph(graph: &TemporalGraph) -> Self {
        // Graph edges are already sorted and de-duplicated.
        Self { edges: graph.edges().to_vec() }
    }

    /// Number of edges.
    #[inline]
    pub fn num_edges(&self) -> usize {
        self.edges.len()
    }

    /// Returns `true` if the set contains no edges.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.edges.is_empty()
    }

    /// The edges, sorted by `(time, src, dst)`.
    #[inline]
    pub fn edges(&self) -> &[TemporalEdge] {
        &self.edges
    }

    /// Returns `true` if the exact edge is in the set.
    pub fn contains(&self, edge: &TemporalEdge) -> bool {
        self.edges.binary_search(edge).is_ok()
    }

    /// Returns `true` if the edge `e(src, dst, time)` is in the set.
    pub fn contains_edge(&self, src: VertexId, dst: VertexId, time: Timestamp) -> bool {
        self.contains(&TemporalEdge::new(src, dst, time))
    }

    /// The vertices induced by the edges, ascending and de-duplicated.
    pub fn vertices(&self) -> Vec<VertexId> {
        let mut vs: BTreeSet<VertexId> = BTreeSet::new();
        for e in &self.edges {
            vs.insert(e.src);
            vs.insert(e.dst);
        }
        vs.into_iter().collect()
    }

    /// Number of induced vertices.
    pub fn num_vertices(&self) -> usize {
        self.vertices().len()
    }

    /// Returns `true` if `vertex` is an endpoint of some edge in the set.
    pub fn contains_vertex(&self, vertex: VertexId) -> bool {
        self.edges.iter().any(|e| e.src == vertex || e.dst == vertex)
    }

    /// Inserts an edge, keeping the canonical order. Returns `true` if the
    /// edge was not already present.
    pub fn insert(&mut self, edge: TemporalEdge) -> bool {
        match self.edges.binary_search(&edge) {
            Ok(_) => false,
            Err(pos) => {
                self.edges.insert(pos, edge);
                true
            }
        }
    }

    /// Returns `true` if every edge of `self` is also in `other`.
    pub fn is_subset_of(&self, other: &EdgeSet) -> bool {
        self.edges.iter().all(|e| other.contains(e))
    }

    /// Edges present in `self` but not in `other`.
    pub fn difference(&self, other: &EdgeSet) -> EdgeSet {
        EdgeSet::from_edges(self.edges.iter().copied().filter(|e| !other.contains(e)))
    }

    /// Edges present in both sets.
    pub fn intersection(&self, other: &EdgeSet) -> EdgeSet {
        EdgeSet::from_edges(self.edges.iter().copied().filter(|e| other.contains(e)))
    }

    /// Edges present in either set.
    pub fn union(&self, other: &EdgeSet) -> EdgeSet {
        EdgeSet::from_edges(self.edges.iter().chain(other.edges.iter()).copied())
    }

    /// Materialises the edge set as a [`TemporalGraph`] with the given vertex
    /// id space (use the parent graph's `num_vertices` to keep ids stable).
    pub fn to_graph(&self, num_vertices: usize) -> TemporalGraph {
        TemporalGraph::from_edges(num_vertices, self.edges.clone())
    }

    /// Materialises the edge set as a graph over *only* its induced
    /// vertices, renumbered `0..n` in ascending original-id order, and
    /// returns the compact-to-original mapping alongside (original vertex
    /// `mapping[i]` became compact vertex `i`).
    ///
    /// A tspG typically touches a vanishing fraction of the parent graph's
    /// vertices; algorithms whose working state scales with the vertex
    /// count (BFS labels, visited bitmaps) run on the compact graph in
    /// time proportional to the tspG instead of the parent graph. Use
    /// [`EdgeSet::to_graph`] when original ids must stay addressable.
    pub fn to_compact_graph(&self) -> (TemporalGraph, Vec<VertexId>) {
        let mapping = self.vertices();
        let compact = |v: VertexId| -> VertexId {
            mapping.binary_search(&v).expect("vertices() contains every endpoint") as VertexId
        };
        let edges: Vec<TemporalEdge> = self
            .edges
            .iter()
            .map(|e| TemporalEdge::new(compact(e.src), compact(e.dst), e.time))
            .collect();
        (TemporalGraph::from_edges(mapping.len(), edges), mapping)
    }

    /// Rough number of heap bytes used by the stored edges.
    pub fn approx_bytes(&self) -> usize {
        self.edges.len() * std::mem::size_of::<TemporalEdge>()
    }

    /// Encodes the set in its bit-packed form; [`PackedEdgeSet::unpack`]
    /// restores it exactly.
    pub fn pack(&self) -> PackedEdgeSet {
        let Some(first) = self.edges.first() else { return PackedEdgeSet::default() };
        let (mut min_src, mut max_src) = (first.src, first.src);
        let (mut min_dst, mut max_dst) = (first.dst, first.dst);
        let mut max_step = 0u64;
        let mut prev_time = first.time;
        for e in &self.edges {
            min_src = min_src.min(e.src);
            max_src = max_src.max(e.src);
            min_dst = min_dst.min(e.dst);
            max_dst = max_dst.max(e.dst);
            max_step = max_step.max(time_step(prev_time, e.time));
            prev_time = e.time;
        }
        let widths = [
            bit_width(max_step),
            bit_width(u64::from(max_src - min_src)),
            bit_width(u64::from(max_dst - min_dst)),
        ];
        let [time_width, src_width, dst_width] = widths.map(u32::from);
        let record_width = time_width + src_width + dst_width;
        let mut writer = BitWriter::with_bits(self.edges.len() * record_width as usize);
        let mut prev_time = first.time;
        for e in &self.edges {
            let record = u128::from(time_step(prev_time, e.time))
                | u128::from(e.src - min_src) << time_width
                | u128::from(e.dst - min_dst) << (time_width + src_width);
            writer.push_record(record, record_width);
            prev_time = e.time;
        }
        PackedEdgeSet {
            first_time: first.time,
            min_src,
            min_dst,
            len: self.edges.len(),
            widths,
            words: writer.finish(),
        }
    }

    /// Ratio `|self| / |other|` of edge counts, the "upper-bound ratio" used
    /// by Table II when `self` is the result tspG and `other` is an
    /// upper-bound graph. Returns 1.0 when `other` is empty.
    pub fn edge_ratio(&self, other: &EdgeSet) -> f64 {
        if other.is_empty() {
            1.0
        } else {
            self.num_edges() as f64 / other.num_edges() as f64
        }
    }
}

/// An [`EdgeSet`] in frame-of-reference bit-packed form, built by
/// [`EdgeSet::pack`].
///
/// The header holds the first timestamp, the minimum source and
/// destination ids, the edge count and three bit widths. The body holds
/// one record per edge in canonical order: the time step from the previous
/// edge (never negative, as edges are sorted by time; wrapping, so a set
/// spanning all of `i64` still fits 64 bits), `src − min_src` and
/// `dst − min_dst`, each at its set-wide width. A record is at most
/// 128 bits, so the body never exceeds the 16 B per edge of the unpacked
/// set; an answer's edges share few timestamps and a narrow id range, so
/// in practice it is several times smaller.
#[derive(Clone, Debug, Default)]
pub struct PackedEdgeSet {
    first_time: Timestamp,
    min_src: VertexId,
    min_dst: VertexId,
    len: usize,
    /// Bit widths of the time step, source offset and destination offset.
    widths: [u8; 3],
    words: Box<[u64]>,
}

impl PackedEdgeSet {
    /// Decodes the packed records back into the identical [`EdgeSet`].
    pub fn unpack(&self) -> EdgeSet {
        let [time_width, src_width, dst_width] = self.widths.map(u32::from);
        let record_width = time_width + src_width + dst_width;
        let (time_mask, src_mask) = (low_bits(time_width), low_bits(src_width));
        let mut reader = BitReader { words: self.words.iter(), acc: 0, available: 0 };
        let mut edges = Vec::with_capacity(self.len);
        let mut time = self.first_time;
        for _ in 0..self.len {
            let record = reader.read_record(record_width);
            time = time.wrapping_add((record as u64 & time_mask) as Timestamp);
            let src = self.min_src + ((record >> time_width) as u64 & src_mask) as VertexId;
            let dst = self.min_dst + (record >> (time_width + src_width)) as VertexId;
            edges.push(TemporalEdge::new(src, dst, time));
        }
        // Records were written in canonical order, so the edges come back
        // sorted and distinct.
        EdgeSet { edges }
    }

    /// Heap bytes held by the packed records (the header is inline).
    pub fn heap_bytes(&self) -> usize {
        std::mem::size_of_val::<[u64]>(&self.words)
    }
}

/// The non-negative step from `prev` to `next` of a sorted timestamp run,
/// as a wrapping `u64` difference.
fn time_step(prev: Timestamp, next: Timestamp) -> u64 {
    next.wrapping_sub(prev) as u64
}

/// Number of bits needed to store `max` (0 for 0).
fn bit_width(max: u64) -> u8 {
    (u64::BITS - max.leading_zeros()) as u8
}

/// A mask of the low `width` bits (`width <= 64`).
fn low_bits(width: u32) -> u64 {
    u64::MAX.checked_shr(u64::BITS - width).unwrap_or(0)
}

/// Appends records of 0–128 bits to a word buffer, low bits first.
struct BitWriter {
    words: Vec<u64>,
    acc: u64,
    filled: u32,
}

impl BitWriter {
    fn with_bits(bits: usize) -> Self {
        Self { words: Vec::with_capacity(bits.div_ceil(64)), acc: 0, filled: 0 }
    }

    /// Appends a record of up to 128 bits as its low and high words.
    fn push_record(&mut self, record: u128, width: u32) {
        let low = width.min(u64::BITS);
        self.push(record as u64, low);
        self.push((record >> u64::BITS) as u64, width - low);
    }

    /// Appends `value`, which must fit in `width` bits (`width <= 64`).
    fn push(&mut self, value: u64, width: u32) {
        debug_assert!(width == 64 || value >> width == 0, "{value} exceeds {width} bits");
        if width == 0 {
            return;
        }
        self.acc |= value << self.filled;
        self.filled += width;
        if self.filled >= 64 {
            self.words.push(self.acc);
            self.filled -= 64;
            // Keep the high bits that did not fit in the flushed word (none
            // when the field ended exactly on the word boundary).
            self.acc = value.checked_shr(width - self.filled).unwrap_or(0);
        }
    }

    fn finish(mut self) -> Box<[u64]> {
        if self.filled > 0 {
            self.words.push(self.acc);
        }
        self.words.into_boxed_slice()
    }
}

/// Reads back the records a [`BitWriter`] appended, in order.
struct BitReader<'a> {
    words: std::slice::Iter<'a, u64>,
    /// Unread bits of the current word, in the low `available` positions.
    acc: u64,
    available: u32,
}

impl BitReader<'_> {
    fn read_record(&mut self, width: u32) -> u128 {
        let low = width.min(u64::BITS);
        u128::from(self.read(low)) | u128::from(self.read(width - low)) << u64::BITS
    }

    fn read(&mut self, width: u32) -> u64 {
        if width == 0 {
            return 0;
        }
        let value = if width <= self.available {
            let value = self.acc;
            self.acc = self.acc.checked_shr(width).unwrap_or(0);
            self.available -= width;
            value
        } else {
            let word = *self.words.next().expect("a record never runs past the packed words");
            // `available < width <= 64`, so the shift is in range.
            let value = self.acc | word << self.available;
            let taken = width - self.available;
            self.acc = word.checked_shr(taken).unwrap_or(0);
            self.available = 64 - taken;
            value
        };
        value & low_bits(width)
    }
}

impl fmt::Debug for EdgeSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("EdgeSet")
            .field("num_edges", &self.num_edges())
            .field("num_vertices", &self.num_vertices())
            .field("edges", &self.edges)
            .finish()
    }
}

impl FromIterator<TemporalEdge> for EdgeSet {
    fn from_iter<I: IntoIterator<Item = TemporalEdge>>(iter: I) -> Self {
        EdgeSet::from_edges(iter)
    }
}

impl<'a> IntoIterator for &'a EdgeSet {
    type Item = &'a TemporalEdge;
    type IntoIter = std::slice::Iter<'a, TemporalEdge>;

    fn into_iter(self) -> Self::IntoIter {
        self.edges.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> EdgeSet {
        EdgeSet::from_edges(vec![
            TemporalEdge::new(0, 2, 2),
            TemporalEdge::new(2, 3, 3),
            TemporalEdge::new(3, 7, 7),
            TemporalEdge::new(2, 7, 6),
        ])
    }

    #[test]
    fn construction_sorts_and_dedups() {
        let es = EdgeSet::from_edges(vec![
            TemporalEdge::new(1, 2, 9),
            TemporalEdge::new(0, 1, 1),
            TemporalEdge::new(1, 2, 9),
        ]);
        assert_eq!(es.num_edges(), 2);
        assert_eq!(es.edges()[0], TemporalEdge::new(0, 1, 1));
    }

    #[test]
    fn membership_and_vertices() {
        let es = sample();
        assert!(es.contains_edge(0, 2, 2));
        assert!(!es.contains_edge(0, 2, 3));
        assert_eq!(es.vertices(), vec![0, 2, 3, 7]);
        assert_eq!(es.num_vertices(), 4);
        assert!(es.contains_vertex(3));
        assert!(!es.contains_vertex(5));
    }

    #[test]
    fn insert_is_idempotent() {
        let mut es = EdgeSet::new();
        assert!(es.insert(TemporalEdge::new(1, 2, 3)));
        assert!(!es.insert(TemporalEdge::new(1, 2, 3)));
        assert_eq!(es.num_edges(), 1);
    }

    #[test]
    fn set_algebra() {
        let a = sample();
        let b = EdgeSet::from_edges(vec![TemporalEdge::new(0, 2, 2), TemporalEdge::new(9, 9, 9)]);
        assert_eq!(a.intersection(&b).num_edges(), 1);
        assert_eq!(a.union(&b).num_edges(), 5);
        assert_eq!(a.difference(&b).num_edges(), 3);
        assert!(a.intersection(&b).is_subset_of(&a));
        assert!(a.intersection(&b).is_subset_of(&b));
        assert!(!a.is_subset_of(&b));
        assert!(a.is_subset_of(&a.union(&b)));
    }

    #[test]
    fn graph_roundtrip() {
        let es = sample();
        let g = es.to_graph(8);
        assert_eq!(g.num_edges(), es.num_edges());
        assert_eq!(EdgeSet::from_graph(&g), es);
    }

    #[test]
    fn compact_graph_renumbers_and_roundtrips() {
        let es = sample(); // vertices {0, 2, 3, 7}
        let (g, mapping) = es.to_compact_graph();
        assert_eq!(mapping, vec![0, 2, 3, 7]);
        assert_eq!(g.num_vertices(), 4);
        assert_eq!(g.num_edges(), es.num_edges());
        // Mapping the compact edges back through `mapping` recovers the
        // original edge set exactly.
        let restored =
            EdgeSet::from_edges(g.edges().iter().map(|e| {
                TemporalEdge::new(mapping[e.src as usize], mapping[e.dst as usize], e.time)
            }));
        assert_eq!(restored, es);
        // Empty sets compact to the empty graph.
        let (empty, mapping) = EdgeSet::new().to_compact_graph();
        assert_eq!(empty.num_vertices(), 0);
        assert!(mapping.is_empty());
    }

    #[test]
    fn edge_ratio() {
        let tspg = sample();
        let mut ub = tspg.clone();
        ub.insert(TemporalEdge::new(5, 6, 4));
        ub.insert(TemporalEdge::new(5, 6, 5));
        let r = tspg.edge_ratio(&ub);
        assert!((r - 4.0 / 6.0).abs() < 1e-12);
        assert_eq!(EdgeSet::new().edge_ratio(&EdgeSet::new()), 1.0);
    }

    /// xorshift64*: a dependency-free source for the randomized round trips.
    fn next(state: &mut u64) -> u64 {
        *state ^= *state >> 12;
        *state ^= *state << 25;
        *state ^= *state >> 27;
        state.wrapping_mul(0x2545_f491_4f6c_dd1d)
    }

    fn assert_roundtrip(es: &EdgeSet) {
        let packed = es.pack();
        assert_eq!(&packed.unpack(), es);
        assert!(packed.heap_bytes() <= es.approx_bytes(), "{packed:?}");
    }

    #[test]
    fn pack_roundtrips_random_sets() {
        let mut state = 0x9e37_79b9_7f4a_7c15;
        for round in 0..200 {
            // Alternate narrow and full-width value ranges so every field
            // width from 0 to 64 bits (and word-straddling records) occurs.
            let (span_v, span_t) = match round % 3 {
                0 => (16, 32),
                1 => (1 << 20, 1 << 40),
                _ => (u64::MAX, u64::MAX),
            };
            let len = (next(&mut state) % 300) as usize;
            let es = EdgeSet::from_edges((0..len).map(|_| {
                let src = (next(&mut state) % span_v.min(1 << 32)) as VertexId;
                let dst = (next(&mut state) % span_v.min(1 << 32)) as VertexId;
                let time = match span_t {
                    u64::MAX => next(&mut state) as Timestamp,
                    span => (next(&mut state) % span) as Timestamp - (span / 2) as Timestamp,
                };
                TemporalEdge::new(src, dst, time)
            }));
            assert_roundtrip(&es);
        }
    }

    #[test]
    fn pack_roundtrips_edge_cases() {
        let empty = EdgeSet::new();
        assert_roundtrip(&empty);
        assert_eq!(empty.pack().heap_bytes(), 0);
        assert_roundtrip(&EdgeSet::from_edges([TemporalEdge::new(4, 9, -3)]));
        // One timestamp: the time field takes no bits.
        let same_time = EdgeSet::from_edges((0..40).map(|v| TemporalEdge::new(v, v + 1, 7)));
        assert_roundtrip(&same_time);
        // The whole i64 range: a 64-bit time step.
        let extremes = EdgeSet::from_edges([
            TemporalEdge::new(1, 2, Timestamp::MIN),
            TemporalEdge::new(2, 3, 0),
            TemporalEdge::new(3, 4, Timestamp::MAX),
        ]);
        assert_roundtrip(&extremes);
        assert_roundtrip(&EdgeSet::from_edges([
            TemporalEdge::new(1, 2, Timestamp::MIN),
            TemporalEdge::new(3, 4, Timestamp::MAX),
        ]));
        // The whole vertex range on both ends: 32-bit id offsets.
        let ids = EdgeSet::from_edges([
            TemporalEdge::new(0, VertexId::MAX, 1),
            TemporalEdge::new(VertexId::MAX, 0, 1),
            TemporalEdge::new(VertexId::MAX, VertexId::MAX, 2),
            TemporalEdge::new(0, 0, Timestamp::MAX),
        ]);
        assert_roundtrip(&ids);
        // The worst case: 128-bit records, exactly the unpacked size.
        let worst = EdgeSet::from_edges([
            TemporalEdge::new(0, 0, Timestamp::MIN),
            TemporalEdge::new(VertexId::MAX, VertexId::MAX, Timestamp::MAX),
        ]);
        assert_eq!(worst.pack().heap_bytes(), worst.approx_bytes());
    }

    #[test]
    fn packing_a_narrow_answer_is_compact() {
        // Ten vertices, time steps of 0 or 1: 1 + 4 + 4 bits per edge, so
        // 160 edges take 1 440 bits (23 words) instead of 2 560 bytes.
        let es = EdgeSet::from_edges(
            (0..160u32).map(|i| TemporalEdge::new(i % 10, (i * 7) % 10, i64::from(i / 10))),
        );
        let packed = es.pack();
        assert_eq!(packed.unpack(), es);
        assert_eq!(packed.heap_bytes(), 23 * 8, "{packed:?}");
    }

    #[test]
    fn iteration() {
        let es = sample();
        let count = (&es).into_iter().count();
        assert_eq!(count, es.num_edges());
        let collected: EdgeSet = es.edges().iter().copied().collect();
        assert_eq!(collected, es);
    }
}
