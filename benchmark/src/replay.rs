//! The traced replay: the workload's batches run again on a fresh default
//! engine, with a span around every public layer call the benchmark makes.
//!
//! Per batch, under one `replay.batch` root span:
//!
//! * `result_cache.get` — `ResultCache::get` for every canonical query, on
//!   a replay cache fed with the replay's answers;
//! * `planner.plan` — `planner::plan` on the queries that cache missed;
//! * `profile.pass` — `ArrivalProfile::compute` for each profile group of
//!   that plan (or, when it has none, for its first query);
//! * `executor.run_batch` — `QueryEngine::run_batch_with_stats`;
//! * `protocol.encode` / `protocol.decode` — `format_result` and
//!   `parse_response` for every answer.
//!
//! Between epochs, and after the batches, `graph.ingest` spans time
//! `QueryEngine::ingest`; `executor.single` spans time single-query
//! batches on the warm engine. The serving workloads replay their request
//! stream in batches of the server's mean batch size, since the server's
//! own batch boundaries are not visible from outside.

use crate::trace::Tracer;
use crate::workload::Inputs;
use std::collections::HashSet;
use tspg_core::engine::cache::ResultCache;
use tspg_core::engine::planner;
use tspg_core::polarity::ArrivalProfile;
use tspg_core::{CacheConfig, QueryEngine, VugReport, VugResult};
use tspg_graph::{Query, TimeInterval, VertexId};
use tspg_server::protocol::{format_result, parse_response};

/// Single-query batches timed on the warm engine.
const SINGLE_PROBES: usize = 200;

/// Sums over the pipeline runs a replay actually performed.
#[derive(Clone, Copy, Debug, Default)]
pub struct Runs {
    /// Performed runs.
    pub count: u64,
    /// Summed `VugReport::total_elapsed`.
    pub pipeline_ns: u64,
    /// Summed QuickUBG / TightUBG / EEV phase times.
    pub quick_ns: u64,
    pub tight_ns: u64,
    pub eev_ns: u64,
    /// Summed edge counts of `G_q`, `G_t` and the tspG.
    pub quick_edges: u64,
    pub tight_edges: u64,
    pub result_edges: u64,
    /// Summed EEV outcomes of the bidirectional search.
    pub confirmed_by_search: u64,
    pub rejected: u64,
}

impl Runs {
    fn add(&mut self, report: &VugReport) {
        let ns = |d: std::time::Duration| u64::try_from(d.as_nanos()).unwrap_or(u64::MAX);
        self.count += 1;
        self.pipeline_ns += ns(report.total_elapsed());
        self.quick_ns += ns(report.quick_elapsed);
        self.tight_ns += ns(report.tight_elapsed);
        self.eev_ns += ns(report.eev_elapsed);
        self.quick_edges += report.quick_edges as u64;
        self.tight_edges += report.tight_edges as u64;
        self.result_edges += report.result_edges as u64;
        self.confirmed_by_search += report.eev.confirmed_by_search;
        self.rejected += report.eev.rejected;
    }
}

/// What the replay measured beside its spans.
#[derive(Clone, Copy, Debug, Default)]
pub struct Replay {
    /// Pipeline runs performed by the traced batches.
    pub runs: Runs,
    /// Traced batches.
    pub batches: u64,
    /// `ResultCache::get` calls.
    pub probes: u64,
    /// Answers encoded and decoded.
    pub answers: u64,
    /// Encoded bytes, newline included.
    pub bytes: u64,
}

/// Identifies one pipeline run by its report. Duplicates and cache hits
/// carry a copy of the report of the run that computed them, so a report
/// seen before is not a new run.
fn fingerprint(report: &VugReport) -> [u64; 7] {
    let ns = |d: std::time::Duration| u64::try_from(d.as_nanos()).unwrap_or(u64::MAX);
    [
        ns(report.quick_elapsed),
        ns(report.tight_elapsed),
        ns(report.eev_elapsed),
        report.input_edges as u64,
        report.quick_edges as u64,
        report.tight_edges as u64,
        report.result_edges as u64,
    ]
}

/// Per-part replay state.
struct Replayer<'t> {
    engine: QueryEngine,
    cache: ResultCache,
    seen: HashSet<[u64; 7]>,
    threads: usize,
    tracer: &'t mut Tracer,
    out: Replay,
}

impl Replayer<'_> {
    /// Runs a batch without spans (warm-up), feeding the replay cache.
    fn warm(&mut self, batch: &[Query]) {
        let (results, _) = self.engine.run_batch_with_stats(batch, self.threads);
        for (query, result) in batch.iter().zip(&results) {
            self.seen.insert(fingerprint(&result.report));
            self.remember(query, result);
        }
    }

    fn remember(&mut self, query: &Query, result: &VugResult) {
        let key = query.canonical();
        if !key.is_degenerate() {
            self.cache.insert(key, result);
        }
    }

    /// Runs one batch with a span around each layer call.
    fn traced(&mut self, batch: &[Query]) {
        let id = self.out.batches;
        self.out.batches += 1;
        let root = self.tracer.open("replay.batch", None, id);
        let cache = &self.cache;
        let keys: Vec<(usize, Query)> = batch
            .iter()
            .map(Query::canonical)
            .enumerate()
            .filter(|(_, key)| !key.is_degenerate())
            .collect();
        self.out.probes += keys.len() as u64;
        let pending: Vec<(usize, Query)> =
            self.tracer.time("result_cache.get", Some(root), id, || {
                keys.into_iter().filter(|(_, key)| cache.get(key).is_none()).collect()
            });
        let engine = &self.engine;
        let plan = self.tracer.time("planner.plan", Some(root), id, || {
            planner::plan(
                &pending,
                engine.planner_config(),
                engine.observed_density(),
                engine.observed_profile_density(),
            )
        });
        // One pass per planned group. A batch the planner formed no group
        // for times the pass its first pending query would have needed, so
        // the cost of a pass is measured on every workload's shape.
        let mut passes: Vec<(VertexId, TimeInterval)> =
            plan.profile_groups().iter().map(|g| (g.source, g.window)).collect();
        if passes.is_empty() {
            passes.extend(pending.first().map(|(_, q)| (q.source, q.window)));
        }
        for (source, window) in passes {
            self.tracer.time("profile.pass", Some(root), id, || {
                ArrivalProfile::compute(engine.graph(), source, window)
            });
        }
        let threads = self.threads;
        let (results, _) = self.tracer.time("executor.run_batch", Some(root), id, || {
            engine.run_batch_with_stats(batch, threads)
        });
        for result in &results {
            if self.seen.insert(fingerprint(&result.report))
                && result.report.total_elapsed() > std::time::Duration::ZERO
            {
                self.out.runs.add(&result.report);
            }
        }
        let lines: Vec<String> = self.tracer.time("protocol.encode", Some(root), id, || {
            results.iter().enumerate().map(|(i, r)| format_result(i as u64, r)).collect()
        });
        let decoded = self.tracer.time("protocol.decode", Some(root), id, || {
            lines.iter().filter(|line| parse_response(line).is_ok()).count()
        });
        assert_eq!(decoded, lines.len(), "every encoded answer decodes");
        self.out.answers += lines.len() as u64;
        self.out.bytes += lines.iter().map(|l| l.len() as u64 + 1).sum::<u64>();
        for (query, result) in batch.iter().zip(&results) {
            self.remember(query, result);
        }
        self.tracer.close(root);
    }

    fn ingest(&mut self, edges: &[tspg_graph::TemporalEdge], id: u64) {
        let engine = &mut self.engine;
        self.tracer.time("graph.ingest", None, id, || engine.ingest(edges));
        self.cache.clear();
    }
}

/// Replays every part of `inputs`. `chunk` re-cuts each submission unit
/// into batches of that many queries (the serving workloads); `None` keeps
/// the workload's own batches.
pub fn run(inputs: &Inputs, chunk: Option<usize>, threads: usize, tracer: &mut Tracer) -> Replay {
    let mut total = Replay::default();
    for part in &inputs.parts {
        let mut replayer = Replayer {
            engine: QueryEngine::new(part.graph.build()),
            cache: ResultCache::new(CacheConfig::default()),
            seen: HashSet::new(),
            threads,
            tracer: &mut *tracer,
            out: total,
        };
        let mut ingests = 0u64;
        for (si, segment) in part.segments.iter().enumerate() {
            for (bi, unit) in segment.batches.iter().enumerate() {
                let size = chunk.unwrap_or(unit.len()).max(1);
                for batch in unit.chunks(size) {
                    if si == 0 && bi == 0 {
                        replayer.warm(batch);
                    } else {
                        replayer.traced(batch);
                    }
                }
            }
            if let Some(edges) = &segment.ingest_after {
                replayer.ingest(edges, ingests);
                ingests += 1;
            }
        }
        // Single-query batches on the warm engine: the compute a lone
        // request needs once caches are filled.
        let last =
            part.segments.last().and_then(|s| s.batches.last()).map_or(&[][..], Vec::as_slice);
        for (i, query) in last.iter().take(SINGLE_PROBES).enumerate() {
            let engine = &replayer.engine;
            replayer.tracer.time("executor.single", None, i as u64, || {
                engine.run_batch_with_stats(std::slice::from_ref(query), threads)
            });
        }
        for edges in &part.probe_ingests {
            replayer.ingest(edges, ingests);
            ingests += 1;
        }
        total = replayer.out;
    }
    total
}
