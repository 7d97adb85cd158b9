//! The answer gate: every answer is checked against the raw per-query
//! path.
//!
//! Answers are kept as 64-bit digests of the tspG (its vertex count and
//! its edges in canonical order), so holding one per query costs 8 bytes
//! whatever the answer's size. The reference is `QueryEngine::run` on a
//! cacheless engine over the same edge list, replaying the workload's
//! ingests in the same order, so each query is checked at the epoch it was
//! answered at. The reference runs after the timed phase.

use crate::workload::Part;
use std::collections::HashMap;
use tspg_core::{QueryEngine, QueryScratch, VugResult};
use tspg_graph::{Query, TemporalEdge};

/// FNV-1a over the answer's vertex count and edge triples.
pub fn digest<'a>(vertices: usize, edges: impl IntoIterator<Item = &'a TemporalEdge>) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    let mut feed = |value: u64| {
        for byte in value.to_le_bytes() {
            hash ^= u64::from(byte);
            hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    feed(vertices as u64);
    for e in edges {
        feed(u64::from(e.src));
        feed(u64::from(e.dst));
        feed(e.time as u64);
    }
    hash
}

/// Digest of an engine answer.
pub fn digest_result(result: &VugResult) -> u64 {
    digest(result.report.result_vertices, result.tspg.edges())
}

/// Reference digests of every query of `part`, in submission order.
pub fn reference(part: &Part, threads: usize) -> Vec<u64> {
    let mut engine = QueryEngine::new(part.graph.build()).without_cache().without_profile_cache();
    let mut out = Vec::with_capacity(part.num_queries());
    for segment in &part.segments {
        let queries: Vec<Query> = segment.batches.iter().flatten().copied().collect();
        let mut distinct: Vec<Query> = queries.clone();
        distinct.sort_unstable_by_key(|q| (q.source, q.target, q.window.begin(), q.window.end()));
        distinct.dedup();
        let digests = run_all(&engine, &distinct, threads);
        let by_query: HashMap<Query, u64> = distinct.into_iter().zip(digests).collect();
        out.extend(queries.iter().map(|q| by_query[q]));
        if let Some(edges) = &segment.ingest_after {
            engine.ingest(edges);
        }
    }
    out
}

/// Answers `queries` one by one with `QueryEngine::run`, spread over
/// `threads` scoped workers.
fn run_all(engine: &QueryEngine, queries: &[Query], threads: usize) -> Vec<u64> {
    let chunk = queries.len().div_ceil(threads.max(1)).max(1);
    std::thread::scope(|scope| {
        let workers: Vec<_> = queries
            .chunks(chunk)
            .map(|chunk| {
                scope.spawn(move || {
                    let mut scratch = QueryScratch::new();
                    chunk
                        .iter()
                        .map(|q| digest_result(&engine.run(*q, &mut scratch)))
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        workers.into_iter().flat_map(|w| w.join().expect("reference worker")).collect()
    })
}

/// Number of answers that are missing or differ from the reference.
pub fn mismatches(answers: &[Option<u64>], reference: &[u64]) -> usize {
    assert_eq!(answers.len(), reference.len(), "one answer slot per query");
    answers.iter().zip(reference).filter(|(a, r)| **a != Some(**r)).count()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn digest_depends_on_vertices_and_edge_order() {
        let a = TemporalEdge::new(0, 1, 3);
        let b = TemporalEdge::new(1, 2, 4);
        assert_eq!(digest(3, [&a, &b]), digest(3, [&a, &b]));
        assert_ne!(digest(3, [&a, &b]), digest(3, [&b, &a]));
        assert_ne!(digest(3, [&a, &b]), digest(2, [&a, &b]));
        assert_ne!(digest(0, []), digest(0, [&a]));
    }

    #[test]
    fn mismatches_count_missing_and_wrong_answers() {
        assert_eq!(mismatches(&[Some(1), None, Some(3)], &[1, 2, 4]), 2);
    }
}
